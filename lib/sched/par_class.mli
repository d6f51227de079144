(** Work-stealing parallel search over the dense-time class graph.

    The class-graph instance of the {!Work_steal} driver, like
    {!Par_search}: N domains expand
    disjoint subtrees of the same class graph, each worker owning a
    {!Deque} of unexpanded classes (LIFO for the owner, so a lone
    worker explores exactly {!Class_search.find_schedule}'s order;
    idle workers steal the shallowest half of a victim's deque).
    Pruning — exact duplicates and inclusion subsumption — is shared
    through one {!Ezrt_tpn.Class_store}, so each canonical class is
    expanded at most once globally.

    The feasibility verdict is deterministic and, with [domains = 1],
    the outcome is identical to the sequential engine's; with more
    domains the specific schedule may differ because subtree
    completion order depends on the race — the same contract as the
    discrete parallel engine. *)

type t = {
  outcome : (Schedule.t, Class_search.failure) result;
  metrics : Class_search.metrics;
  domains_used : int;
      (** workers that expanded, lost a claim or stole at least once *)
  steals : int;
  store : Ezrt_tpn.Class_store.stats;
}

val find_schedule :
  ?max_stored:int ->
  ?subsume:bool ->
  ?por:bool ->
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  t
(** [max_stored] defaults to 500_000; [subsume] (default [true]) is
    gated on {!Class_search.subsumption_applicable}; [por] (default
    [true]) enables the class-level stubborn-set reduction shared with
    {!Class_search}; [domains] defaults to
    [max 2 (recommended_domain_count - 1)].  [cancel] is polled by
    worker 0 at every expansion. *)
