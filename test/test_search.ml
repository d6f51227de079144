module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Schedule = Ezrt_sched.Schedule
module Timeline = Ezrt_sched.Timeline
module Validator = Ezrt_sched.Validator
module Priority = Ezrt_sched.Priority
module Task = Ezrt_spec.Task
module Spec = Ezrt_spec.Spec
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let solve ?options spec =
  let model = Translate.translate spec in
  let outcome, metrics = Search.find_schedule ?options model in
  (model, outcome, metrics)

let expect_feasible ?options name spec =
  match solve ?options spec with
  | model, Ok schedule, _ ->
    (* certify against the TPN semantics and the raw specification *)
    let final = Schedule.replay model.Translate.net schedule in
    check_bool (name ^ " replay reaches MF") true (Translate.is_final model final);
    let segments = Timeline.of_schedule model schedule in
    (match Validator.check model segments with
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "%s: %s" name
        (Validator.violation_to_string (List.hd vs)))
  | _, Error f, _ ->
    Alcotest.failf "%s: %s" name (Search.failure_to_string f)

let test_case_studies_feasible () =
  List.iter
    (fun (name, spec) ->
      if name <> "greedy-trap" then expect_feasible name spec)
    Case_studies.all

let test_mine_pump_statistics () =
  let _, outcome, metrics = solve Case_studies.mine_pump in
  check_bool "feasible" true (Result.is_ok outcome);
  (* the paper reports 3268 searched states (minimum 3130); our stored
     count must be in the same regime: thousands, not millions *)
  check_bool "stored in the paper's regime" true
    (metrics.Search.stored > 2000 && metrics.Search.stored < 10_000);
  check_bool "fast" true (metrics.Search.elapsed_s < 5.0);
  check_bool "eager pruning active" true (metrics.Search.eager > 0)

let unschedulable_pair =
  (* both need the processor in [0,6) but only 10 units of work fit
     before one of the deadlines *)
  Spec.make ~name:"tight"
    ~tasks:
      [
        Task.make ~name:"a" ~wcet:5 ~deadline:5 ~period:10 ();
        Task.make ~name:"b" ~wcet:5 ~deadline:6 ~period:10 ();
      ]
    ()

let test_infeasible_detected () =
  match solve unschedulable_pair with
  | _, Error Search.Infeasible, metrics ->
    check_bool "did some work" true (metrics.Search.stored > 0)
  | _, Error Search.Budget_exhausted, _ -> Alcotest.fail "budget, not proof"
  | _, Ok _, _ -> Alcotest.fail "should be unschedulable"

let test_budget_exhaustion () =
  let options = { Search.default_options with max_stored = 2 } in
  match solve ~options Case_studies.mine_pump with
  | _, Error Search.Budget_exhausted, metrics ->
    check_int "stored at the budget" 2 metrics.Search.stored
  | _, (Ok _ | Error Search.Infeasible), _ ->
    Alcotest.fail "expected budget exhaustion"

let test_partial_order_off_same_answer () =
  let options = { Search.default_options with partial_order = false } in
  expect_feasible ~options "fig8 without pruning" Case_studies.fig8_preemptive;
  let _, _, with_po = solve Case_studies.fig8_preemptive in
  let _, _, without_po = solve ~options Case_studies.fig8_preemptive in
  check_int "no eager states when disabled" 0 without_po.Search.eager;
  check_bool "pruning stores fewer states" true
    (with_po.Search.stored < without_po.Search.stored)

let test_all_policies_feasible () =
  List.iter
    (fun (name, policy) ->
      let options = { Search.default_options with policy } in
      expect_feasible ~options ("fig8 under " ^ name) Case_studies.fig8_preemptive;
      expect_feasible ~options ("quickstart under " ^ name)
        Case_studies.quickstart)
    Priority.all

let test_greedy_trap_needs_inserted_idle () =
  (match solve Case_studies.greedy_trap with
  | _, Ok _, _ -> ()
  | _, Error f, _ ->
    Alcotest.failf "greedy trap (work-conserving branch set): %s"
      (Search.failure_to_string f));
  let options = { Search.default_options with latest_release = true } in
  expect_feasible ~options "greedy trap with latest-release"
    Case_studies.greedy_trap

let test_deterministic () =
  let _, o1, m1 = solve Case_studies.fig8_preemptive in
  let _, o2, m2 = solve Case_studies.fig8_preemptive in
  (match o1, o2 with
  | Ok s1, Ok s2 ->
    check_bool "same schedule" true (s1.Schedule.entries = s2.Schedule.entries)
  | _ -> Alcotest.fail "expected feasible");
  check_int "same stored count" m1.Search.stored m2.Search.stored

let test_schedule_spans_hyperperiod () =
  let model, outcome, _ = solve Case_studies.mine_pump in
  match outcome with
  | Ok schedule ->
    check_int "every required firing present"
      (Translate.minimum_firings model)
      (Schedule.length schedule);
    check_bool "makespan within hyper-period" true
      (Schedule.makespan schedule <= model.Translate.horizon)
  | Error _ -> Alcotest.fail "infeasible"

(* Found schedules on random specs always certify; infeasibility
   answers must agree with a preemptive-EDF necessary check (if EDF
   with full preemption schedules it and there are no relations, the
   DFS must not claim infeasible for preemptive task sets). *)
let prop_found_schedules_certify =
  qcheck ~count:60 "found schedules certify" arbitrary_spec (fun spec ->
      match solve spec with
      | model, Ok schedule, _ ->
        let segments = Timeline.of_schedule model schedule in
        Result.is_ok (Validator.check model segments)
      | _, Error Search.Infeasible, _ -> true
      | _, Error Search.Budget_exhausted, _ -> true)

(* The fixed cost every search pays whatever its size: quickstart
   stores a handful of states, so what one search allocates is mostly
   setup — the visited table, the deques, the reduction context.  A
   visited table pre-sized from the 500 000-state budget allocated
   512 KiB on its own. *)
let test_fixed_cost () =
  let model = Translate.translate Case_studies.quickstart in
  (* the first run registers the metric series *)
  ignore (Search.find_schedule model);
  let before = Gc.allocated_bytes () in
  ignore (Search.find_schedule model);
  let bytes = Gc.allocated_bytes () -. before in
  check_bool
    (Printf.sprintf "%.0f bytes allocated, under 64 KiB" bytes)
    true (bytes < 64. *. 1024.)

(* A cancel that is already set stops the search before its first
   node: nothing is claimed, not even the root. *)
let test_cancel_is_prompt () =
  let model = Translate.translate Case_studies.mine_pump in
  match Search.find_schedule ~cancel:(fun () -> true) model with
  | Error Search.Budget_exhausted, m ->
    check_int "nothing stored" 0 m.Search.stored
  | Error f, _ -> Alcotest.failf "wrong failure: %s" (Search.failure_to_string f)
  | Ok _, _ -> Alcotest.fail "cancelled search cannot succeed"

let suite =
  [
    case "fixed cost of a small search" test_fixed_cost;
    case "cancel stops before the first node" test_cancel_is_prompt;
    case "case studies are schedulable" test_case_studies_feasible;
    slow_case "mine pump statistics match the paper's regime"
      test_mine_pump_statistics;
    case "infeasibility detected" test_infeasible_detected;
    case "budget exhaustion" test_budget_exhaustion;
    case "partial-order ablation" test_partial_order_off_same_answer;
    case "all ordering policies" test_all_policies_feasible;
    case "greedy trap" test_greedy_trap_needs_inserted_idle;
    case "search is deterministic" test_deterministic;
    case "schedule covers the hyper-period" test_schedule_spans_hyperperiod;
    prop_found_schedules_certify;
  ]
