(** Work-stealing parallel DFS: one search problem, N OCaml 5 domains
    expanding disjoint subtrees from a shared frontier — the discrete
    instance of the {!Work_steal} driver.

    Each worker owns a deque of unexpanded nodes (LIFO at the top, so
    a lone worker explores exactly the sequential incremental engine's
    order); idle workers steal half a victim's deque from the bottom —
    the shallowest nodes with the largest subtrees.  A worker walks
    its own {!Ezrt_tpn.State.Incremental} engine and repositions
    between nodes by undoing to the lowest common ancestor and
    replaying the downward actions.

    Pruning is shared through one {!Ezrt_tpn.Packed_state.Sharded}
    table, keyed by the engine's incrementally maintained Zobrist
    hash: a node {e claims} its state before expanding, so each
    distinct state is expanded at most once across all domains.

    {b Determinism contract}: the feasibility verdict (and
    certification of any schedule found) is deterministic; the
    {e specific} schedule may differ from the sequential engines' —
    and between runs with [domains > 1] — because subtree completion
    order depends on the race.  With [~domains:1] the search is
    action-for-action identical to the sequential incremental
    engine. *)

type t = {
  outcome : (Schedule.t, Search.failure) result;
  metrics : Search.metrics;
      (** aggregated over workers; [stored] counts successful claims *)
  domains_used : int;
      (** workers that expanded, skipped, or stole at least once *)
  steals : int;
  shared_hits : int;
      (** expansions skipped because the state was already claimed in
          the shared table — re-convergent paths of the TLTS (the
          sequential engines' memo hits) plus states claimed first by
          another domain *)
  replayed_fires : int;
      (** firings replayed while repositioning after pops and steals *)
  table : Ezrt_tpn.Packed_state.Sharded.stats;
}

val default_domains : unit -> int
(** [max 2 (recommended_domain_count - 1)] — leave one for the
    caller's domain, never degenerate to a sequential run. *)

val find_schedule :
  ?options:Search.options ->
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  t
(** [options.incremental] is ignored (the engine is always the
    incremental one); [cancel] is polled by worker 0 and stops every
    domain, reporting [Budget_exhausted] like the sequential search. *)
