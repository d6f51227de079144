(** Work-stealing parallel search over the dense-time class graph:
    {!Class_search.explore}, the class-graph instance of the
    {!Work_steal} driver, whose one-domain run is
    {!Class_search.find_schedule}.

    The feasibility verdict is deterministic and, with [domains = 1],
    the outcome is identical to the sequential engine's; with more
    domains the specific schedule may differ because subtree
    completion order depends on the race — the same contract as the
    discrete parallel engine.

    This module only re-exports {!Class_search.explore} under the name
    the benchmark harnesses ([bench/], [perfbench/]) call; library code
    and the CLI call {!Class_search.explore} directly. *)

type t = Class_search.exploration = {
  outcome : (Schedule.t, Class_search.failure) result;
  metrics : Class_search.metrics;
  domains_used : int;
  steals : int;
  store : Ezrt_tpn.Class_store.stats;
}
(** Field by field as {!Class_search.exploration}. *)

val find_schedule :
  ?max_stored:int ->
  ?subsume:bool ->
  ?por:bool ->
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  t
(** {!Class_search.explore}: [domains] defaults to
    [max 2 (recommended_domain_count - 1)]. *)
