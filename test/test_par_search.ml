(* Work-stealing parallel search: every schedule it finds must
   certify, its verdicts must match the sequential engines, and with
   one domain it must be action-for-action identical to the
   incremental engine — the determinism contract the differ encodes. *)

module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Par_search = Ezrt_sched.Par_search
module Schedule = Ezrt_sched.Schedule
module Timeline = Ezrt_sched.Timeline
module Validator = Ezrt_sched.Validator
module Task = Ezrt_spec.Task
module Spec = Ezrt_spec.Spec
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let certify name model schedule =
  let final = Schedule.replay model.Translate.net schedule in
  check_bool (name ^ " replay reaches MF") true (Translate.is_final model final);
  match Validator.check model (Timeline.of_schedule model schedule) with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "%s: %s" name (Validator.violation_to_string (List.hd vs))

let test_case_studies_certify () =
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let r = Par_search.find_schedule ~domains:2 model in
      match r.Par_search.outcome with
      | Ok schedule ->
        certify name model schedule;
        check_bool (name ^ " used at least one domain") true
          (r.Par_search.domains_used >= 1);
        check_bool (name ^ " stored states counted") true
          (r.Par_search.metrics.Search.stored > 0)
      | Error f -> Alcotest.failf "%s: %s" name (Search.failure_to_string f))
    Case_studies.all

(* The one-domain run takes the exact path of the sequential copying
   engine (the differential oracle): same schedule, same node counts. *)
let test_one_domain_matches_sequential () =
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let seq_outcome, seq_m =
        Search.find_schedule
          ~options:{ Search.default_options with incremental = false }
          model
      in
      let par = Par_search.find_schedule ~domains:1 model in
      (match (seq_outcome, par.Par_search.outcome) with
      | Ok a, Ok b ->
        check_bool
          (name ^ " identical schedule")
          true
          (a.Schedule.entries = b.Schedule.entries)
      | Error a, Error b ->
        check_string (name ^ " same failure") (Search.failure_to_string a)
          (Search.failure_to_string b)
      | _ -> Alcotest.failf "%s: engines disagree on feasibility" name);
      check_int (name ^ " stored") seq_m.Search.stored
        par.Par_search.metrics.Search.stored;
      check_int (name ^ " one domain") 1 par.Par_search.domains_used)
    [ ("mine-pump", Case_studies.mine_pump); ("fig8", Case_studies.fig8_preemptive) ]

let unschedulable_pair =
  Spec.make ~name:"tight"
    ~tasks:
      [
        Task.make ~name:"a" ~wcet:5 ~deadline:5 ~period:10 ();
        Task.make ~name:"b" ~wcet:5 ~deadline:6 ~period:10 ();
      ]
    ()

(* Infeasibility is a proof of exhaustion; it must be deterministic
   under any domain count. *)
let test_infeasible_agrees () =
  let model = Translate.translate unschedulable_pair in
  let seq_outcome, _ = Search.find_schedule model in
  check_bool "sequential says infeasible" true
    (seq_outcome = Error Search.Infeasible);
  List.iter
    (fun domains ->
      let r = Par_search.find_schedule ~domains model in
      check_bool
        (Printf.sprintf "parallel x%d says infeasible" domains)
        true
        (r.Par_search.outcome = Error Search.Infeasible))
    [ 1; 2; 3 ]

(* Feasibility verdicts are deterministic even though the specific
   schedule may differ between runs; whatever comes back must
   certify. *)
let test_verdict_deterministic () =
  let model = Translate.translate Case_studies.mine_pump in
  for _ = 1 to 5 do
    let r = Par_search.find_schedule ~domains:2 model in
    match r.Par_search.outcome with
    | Ok schedule -> certify "mine-pump repeat" model schedule
    | Error f ->
      Alcotest.failf "mine-pump went %s" (Search.failure_to_string f)
  done

let test_budget_exhaustion () =
  let model = Translate.translate unschedulable_pair in
  let options = { Search.default_options with max_stored = 5 } in
  let r = Par_search.find_schedule ~options ~domains:2 model in
  (match r.Par_search.outcome with
  | Error Search.Budget_exhausted -> ()
  | Ok _ -> Alcotest.fail "budget 5 cannot find a schedule"
  | Error Search.Infeasible ->
    Alcotest.fail "budget exhaustion must not claim a proof");
  check_bool "stored within an overshoot of one per domain" true
    (r.Par_search.metrics.Search.stored <= 5 + 2)

let test_cancellation () =
  let model = Translate.translate unschedulable_pair in
  let polls = ref 0 in
  let cancel () =
    incr polls;
    !polls > 3
  in
  let r = Par_search.find_schedule ~domains:2 ~cancel model in
  match r.Par_search.outcome with
  | Error Search.Budget_exhausted -> ()
  | Ok _ -> Alcotest.fail "cancelled search returned a schedule"
  | Error Search.Infeasible ->
    Alcotest.fail "cancelled search must not claim a proof"

let test_stats_sanity () =
  let model = Translate.translate Case_studies.mine_pump in
  let r = Par_search.find_schedule ~domains:2 model in
  let m = r.Par_search.metrics in
  check_bool "visited >= stored" true (m.Search.visited >= m.Search.stored);
  check_bool "elapsed non-negative" true (m.Search.elapsed_s >= 0.0);
  check_bool "max_depth positive" true (m.Search.max_depth > 0);
  check_bool "table entries = stored claims" true
    (r.Par_search.table.Ezrt_tpn.Packed_state.Sharded.entries
    >= m.Search.stored);
  check_bool "counters non-negative" true
    (r.Par_search.steals >= 0
    && r.Par_search.shared_hits >= 0
    && r.Par_search.replayed_fires >= 0)

let suite =
  [
    slow_case "case studies certify under 2 domains" test_case_studies_certify;
    case "one domain matches the sequential engine"
      test_one_domain_matches_sequential;
    case "infeasibility agrees at any domain count" test_infeasible_agrees;
    case "feasibility verdict is deterministic" test_verdict_deterministic;
    case "budget exhaustion is reported" test_budget_exhaustion;
    case "cancellation stops every domain" test_cancellation;
    case "stats are sane" test_stats_sanity;
  ]
