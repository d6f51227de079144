(* [Class_search.explore] under the name the benchmark harnesses
   (bench/, perfbench/) call; library code calls [Class_search.explore]
   itself. *)

type t = Class_search.exploration = {
  outcome : (Schedule.t, Class_search.failure) result;
  metrics : Class_search.metrics;
  domains_used : int;
  steals : int;
  store : Ezrt_tpn.Class_store.stats;
}

let find_schedule = Class_search.explore
