(* [Search.explore] under the name the benchmark harnesses (bench/,
   perfbench/) call; library code calls [Search.explore] itself. *)

type t = Search.exploration = {
  outcome : (Schedule.t, Search.failure) result;
  metrics : Search.metrics;
  domains_used : int;
  steals : int;
  shared_hits : int;
  replayed_fires : int;
  table : Ezrt_tpn.Packed_state.Sharded.stats;
}

let default_domains = Work_steal.default_domains
let find_schedule = Search.explore
