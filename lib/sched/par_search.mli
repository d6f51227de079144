(** Work-stealing parallel DFS over the discrete TLTS: {!Search.explore},
    the discrete instance of the {!Work_steal} driver, whose one-domain
    run is {!Search.find_schedule}'s incremental engine.

    {b Determinism contract}: the feasibility verdict (and
    certification of any schedule found) is deterministic; the
    {e specific} schedule may differ from the sequential engines' —
    and between runs with [domains > 1] — because subtree completion
    order depends on the race.  With [~domains:1] the search is
    action-for-action identical to the sequential engines.

    This module only re-exports {!Search.explore} under the name the
    benchmark harnesses ([bench/], [perfbench/]) call; library code and
    the CLI call {!Search.explore} directly. *)

type t = Search.exploration = {
  outcome : (Schedule.t, Search.failure) result;
  metrics : Search.metrics;
  domains_used : int;
  steals : int;
  shared_hits : int;
  replayed_fires : int;
  table : Ezrt_tpn.Packed_state.Sharded.stats;
}
(** Field by field as {!Search.exploration}. *)

val default_domains : unit -> int
(** [max 2 (recommended_domain_count - 1)] — leave one for the
    caller's domain, never degenerate to a sequential run. *)

val find_schedule :
  ?options:Search.options ->
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  t
(** {!Search.explore}: [domains] defaults to {!default_domains}. *)
