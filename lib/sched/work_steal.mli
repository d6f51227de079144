(** Work-stealing parallel DFS driver shared by {!Par_search} and
    {!Par_class}.

    One search tree, N OCaml 5 domains expanding disjoint subtrees
    from a shared frontier.  Each worker owns a {!Deque} of unexpanded
    nodes (LIFO at the top, so a lone worker explores exactly the
    sequential order); idle workers steal from a victim's bottom.  The
    engine supplies per-worker node operations; the driver owns the
    stored budget, termination, helper spawn, stealing, idle back-off,
    cancellation and the per-worker counters. *)

type stats = {
  mutable stored : int;  (** successful claims *)
  mutable eager : int;  (** forced firings collapsed into a node *)
  mutable backtracks : int;  (** dead ends and childless claims *)
  mutable max_depth : int;
  mutable steals : int;
  mutable shared_hits : int;
      (** visits whose state was already claimed — re-convergent paths
          plus states claimed first by another domain *)
  mutable replayed : int;  (** firings replayed while repositioning *)
  mutable por_reduced : int;
  mutable por_fallback : int;
  mutable por_skipped : int;
}
(** Per-worker counters.  The driver bumps [stored], [backtracks],
    [max_depth], [steals] and [shared_hits]; the engine bumps [eager],
    [replayed] and the POR triple.  Visited states are
    [stored + eager]. *)

val count_por : stats -> por:bool -> Search.por_outcome -> unit
(** Bumps the POR counter for one expansion; [Por_skipped] counts only
    when the reduction is switched on. *)

type visit =
  | Goal  (** the node's state is a goal: the search stops *)
  | Dead_end  (** a dead state: counted as a backtrack *)
  | Claim_lost  (** some worker or path already owns the state *)
  | Fresh  (** claimed: the driver charges the budget, then expands *)

type 'node children =
  | Leaf  (** no candidate: counted as a backtrack *)
  | Children of 'node * 'node list
      (** the first child, expanded next by the same worker without a
          deque round-trip, and its siblings {e reversed} (push order:
          the deque top ends up holding the second candidate) *)

type 'node worker = {
  visit : 'node -> visit;
      (** reposition onto the node, collapse forced chains, test goal
          and dead end, claim the state *)
  children : 'node -> 'node children;
      (** called right after a [Fresh] visit of the same node *)
}

type 'node outcome =
  | Found of 'node  (** the first goal node any worker reached *)
  | Exhausted  (** every published node was expanded: no goal *)
  | Stopped  (** budget hit or cancelled *)

type 'node result = {
  outcome : 'node outcome;
  stats : stats;  (** summed over workers; [max_depth] is the maximum *)
  domains_used : int;
      (** workers that expanded, lost a claim, or stole at least once *)
}

val default_domains : unit -> int
(** [max 2 (recommended_domain_count - 1)] — leave one for the
    caller's domain, never degenerate to a sequential run. *)

val run :
  ?domains:int ->
  engine:string ->
  span_args:(string * Ezrt_obs.Trace.arg) list ->
  worker_span:string ->
  cancel:(unit -> bool) ->
  max_stored:int ->
  depth:('node -> int) ->
  root:'node ->
  (int -> stats -> 'node worker) ->
  'node result
(** [run ~root make_worker] searches from [root].  [make_worker id
    stats] is called once on each worker's own domain and may allocate
    per-worker engines.  [domains] defaults to {!default_domains}.
    [cancel] is polled by worker 0 before every expansion; it and the
    [max_stored] claim budget stop every worker.  The whole run is one
    ["search"] trace span tagged [engine], [span_args] and the domain
    count; each worker runs inside one span named [worker_span].
    [depth] is the node's tree depth, used for [max_depth] and the
    steal policy.

    Steal policy, read off worker 0's own DFS with no setting: worker
    0 spawns the helpers only once it has backtracked out of a subtree
    holding more stored states than its root's depth (and holds a
    sibling for each helper).  A search that dives with shallow
    dead-end backtracks therefore stays on one domain, where a helper
    would only explore branches the sequential DFS never reaches; a
    bushy or exhaustive search spawns within its first few dozen
    states. *)

val flush_metrics :
  engine:string ->
  table_entries:int ->
  table_contended:int ->
  'node result ->
  unit
(** Adds the [ezrt_par_*] counters (steals, shared hits, replayed
    fires, shared-table entries and contention) under the [engine]
    label. *)
