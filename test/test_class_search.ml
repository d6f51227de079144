module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Class_search = Ezrt_sched.Class_search
module Schedule = Ezrt_sched.Schedule
module Timeline = Ezrt_sched.Timeline
module Validator = Ezrt_sched.Validator
module Task = Ezrt_spec.Task
module Spec = Ezrt_spec.Spec
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let solve spec =
  let model = Translate.translate spec in
  let outcome, metrics = Class_search.find_schedule model in
  (model, outcome, metrics)

let expect_feasible name spec =
  match solve spec with
  | model, Ok schedule, _ ->
    let final = Schedule.replay model.Translate.net schedule in
    check_bool (name ^ " reaches MF") true (Translate.is_final model final);
    let segments = Timeline.of_schedule model schedule in
    (match Validator.check model segments with
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "%s: %s" name (Validator.violation_to_string (List.hd vs)))
  | _, Error f, _ ->
    Alcotest.failf "%s: %s" name (Class_search.failure_to_string f)

let test_all_case_studies () =
  List.iter (fun (name, spec) -> expect_feasible name spec) Case_studies.all

let test_greedy_trap_without_flags () =
  (* the class search is complete for dense time: the inserted-idle
     schedule needs no special option, and the exact extraction
     realizes the delayed release *)
  expect_feasible "greedy trap" Case_studies.greedy_trap

let test_fewer_nodes_than_discrete () =
  let model = Translate.translate Case_studies.mine_pump in
  let _, class_metrics = Class_search.find_schedule model in
  let _, discrete_metrics = Search.find_schedule model in
  check_bool "classes below discrete states" true
    (class_metrics.Class_search.stored < discrete_metrics.Search.stored)

let test_infeasible_detected () =
  let spec =
    Spec.make ~name:"tight"
      ~tasks:
        [
          Task.make ~name:"a" ~wcet:5 ~deadline:5 ~period:10 ();
          Task.make ~name:"b" ~wcet:5 ~deadline:6 ~period:10 ();
        ]
      ()
  in
  match solve spec with
  | _, Error Class_search.Infeasible, _ -> ()
  | _, Error f, _ ->
    Alcotest.failf "wrong failure: %s" (Class_search.failure_to_string f)
  | _, Ok _, _ -> Alcotest.fail "should be unschedulable"

let test_budget () =
  let model = Translate.translate Case_studies.mine_pump in
  match Class_search.find_schedule ~max_stored:2 model with
  | Error Class_search.Budget_exhausted, m ->
    check_int "stored at budget" 2 m.Class_search.stored
  | Error _, _ | Ok _, _ -> Alcotest.fail "expected budget exhaustion"

let test_agrees_with_discrete_on_feasibility () =
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let discrete = Result.is_ok (fst (Search.find_schedule model)) in
      let classes = Result.is_ok (fst (Class_search.find_schedule model)) in
      (* dense-time feasibility is implied by discrete feasibility *)
      if discrete && not classes then
        Alcotest.failf "%s: discrete feasible but class search failed" name)
    Case_studies.all

let prop_class_schedules_certify =
  qcheck ~count:40 "class-search schedules certify" arbitrary_spec (fun spec ->
      match solve spec with
      | model, Ok schedule, _ ->
        let segments = Timeline.of_schedule model schedule in
        Result.is_ok (Validator.check model segments)
      | _, Error Class_search.Extraction_failed, _ -> false
      | _, Error (Class_search.Infeasible | Class_search.Budget_exhausted), _
        -> true)

(* Both engines must agree on feasibility for generated specs: the
   discrete engine is work-conserving-restricted but the generator's
   synchronous harmonic sets don't need inserted idle... they might.
   Only the implication discrete => class is a theorem. *)
let prop_discrete_implies_class =
  qcheck ~count:30 "discrete feasible => class feasible" arbitrary_spec
    (fun spec ->
      let model = Translate.translate spec in
      match fst (Search.find_schedule model) with
      | Error _ -> true
      | Ok _ -> Result.is_ok (fst (Class_search.find_schedule model)))

(* Relation-heavy infeasible spec: five tasks in a near-complete
   exclusion clique plus one precedence.  Infeasibility forces the
   search to exhaust the class graph, where the same marking recurs
   under strictly nested domains — the workload subsumption exists
   for.  Mirrored by the A17_class_relations bench record. *)
let relations_spec =
  let mk i d =
    Task.make ~name:(Printf.sprintf "q%d" i) ~wcet:7 ~deadline:d ~period:40 ()
  in
  let tasks = [ mk 0 22; mk 1 22; mk 2 26; mk 3 30; mk 4 34 ] in
  let id i = (List.nth tasks i).Task.id in
  let pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if j > i then Some (id i, id j) else None)
          [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4 ]
  in
  Spec.make ~name:"relations" ~tasks
    ~precedences:[ (id 0, id 1) ]
    ~exclusions:(List.filter (fun p -> p <> (id 0, id 1)) pairs)
    ()

let test_subsumption_prunes () =
  let model = Translate.translate relations_spec in
  let on_outcome, on = Class_search.find_schedule model in
  let off_outcome, off = Class_search.find_schedule ~subsume:false model in
  check_bool "verdicts agree" true
    (Result.is_error on_outcome = Result.is_error off_outcome);
  check_bool "subsumption fired" true (on.Class_search.subsumed > 0);
  check_bool "fewer classes stored" true
    (on.Class_search.stored < off.Class_search.stored);
  check_int "no subsumption when disabled" 0 off.Class_search.subsumed

let test_determinism () =
  (* two runs over the same model are bit-identical: same schedule,
     same metrics (the store's iteration order never leaks) *)
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let o1, m1 = Class_search.find_schedule model in
      let o2, m2 = Class_search.find_schedule model in
      check_bool (name ^ " same outcome") true (o1 = o2);
      check_int (name ^ " same stored") m1.Class_search.stored
        m2.Class_search.stored;
      check_int (name ^ " same backtracks") m1.Class_search.backtracks
        m2.Class_search.backtracks)
    (("relations", relations_spec) :: Case_studies.all)

let test_subsume_off_matches_on () =
  (* the escape hatch must not change any verdict *)
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let on = fst (Class_search.find_schedule model) in
      let off = fst (Class_search.find_schedule ~subsume:false model) in
      check_bool (name ^ " verdict unchanged") true
        (Result.is_ok on = Result.is_ok off))
    (("relations", relations_spec) :: Case_studies.all)

let test_cancel_is_prompt () =
  (* a cancel that is already set must stop the search at the first
     visited class, including down eager chains *)
  let model = Translate.translate Case_studies.mine_pump in
  match Class_search.find_schedule ~cancel:(fun () -> true) model with
  | Error Class_search.Budget_exhausted, m ->
    check_int "nothing stored" 0 m.Class_search.stored
  | Error f, _ ->
    Alcotest.failf "wrong failure: %s" (Class_search.failure_to_string f)
  | Ok _, _ -> Alcotest.fail "cancelled search cannot succeed"

(* The one-domain class search, pinned case by case: stored classes,
   eager firings, backtracks (dead ends plus classes with no
   candidate), maximum depth, schedule length and an MD5 of the
   schedule's [tid@time] actions.  Stored, eager, depth and schedules
   are those of the former sequential class DFS; the work-stealing
   parallel engine has no other single-domain reference. *)
let pinned =
  [
    ("mine-pump", 1335, 3527, 78, 1320, 4694, "38cb0fa206a1753854d0febba1615c37");
    ("flight-control", 719, 369, 95, 134, 299, "eae1eb46846e6a2033eb45feb76e67ca");
    ("fig3", 3, 12, 0, 3, 15, "679813700cb8d9b51d77caa4a65dee9f");
    ("fig4", 5, 67, 0, 5, 72, "132a058df831007d91a05c014b6f0898");
    ("fig8", 204, 508, 128, 39, 84, "d0bac63dc8464c4d47e331e1a04a4fa6");
    ("quickstart", 4, 18, 0, 4, 22, "2ac44fe0fcc8928eeda7cd4f8b5a1243");
    ("greedy-trap", 4, 28, 3, 4, 14, "0e78db53d2ec2d9c5f95745ccb960954");
  ]

let check_pinned name (outcome, (m : Class_search.metrics)) =
  let _, stored, eager, backtracks, max_depth, length, digest =
    List.find (fun (n, _, _, _, _, _, _) -> n = name) pinned
  in
  check_int (name ^ " stored") stored m.Class_search.stored;
  check_int (name ^ " eager") eager m.Class_search.eager;
  check_int (name ^ " backtracks") backtracks m.Class_search.backtracks;
  check_int (name ^ " max_depth") max_depth m.Class_search.max_depth;
  match outcome with
  | Ok s ->
    check_int (name ^ " schedule length") length (Schedule.length s);
    check_string (name ^ " schedule digest") digest
      (Digest.to_hex
         (Digest.string
            (String.concat ";"
               (List.map
                  (fun e -> Printf.sprintf "%d@%d" e.Schedule.tid e.Schedule.time)
                  s.Schedule.entries))))
  | Error f -> Alcotest.failf "%s: %s" name (Class_search.failure_to_string f)

let test_pinned_case_studies () =
  List.iter
    (fun (name, spec) ->
      check_pinned name (Class_search.find_schedule (Translate.translate spec)))
    Case_studies.all

let test_subsumption_applicability () =
  (* the translation's priority discipline satisfies the static
     soundness conditions on every case study *)
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      check_bool (name ^ " subsumption applicable") true
        (Class_search.subsumption_applicable model))
    (("relations", relations_spec) :: Case_studies.all)

let prop_subsume_verdict_agreement =
  qcheck ~count:30 "subsumption never changes the verdict" arbitrary_spec
    (fun spec ->
      let model = Translate.translate spec in
      let on = fst (Class_search.find_schedule model) in
      let off = fst (Class_search.find_schedule ~subsume:false model) in
      Result.is_ok on = Result.is_ok off)

let suite =
  [
    case "case studies via state classes" test_all_case_studies;
    case "greedy trap needs no flag" test_greedy_trap_without_flags;
    slow_case "fewer nodes than the discrete search"
      test_fewer_nodes_than_discrete;
    case "infeasibility detected" test_infeasible_detected;
    case "budget exhaustion" test_budget;
    case "feasibility agrees with the discrete engine"
      test_agrees_with_discrete_on_feasibility;
    case "subsumption prunes the relations spec" test_subsumption_prunes;
    case "deterministic metrics and schedules" test_determinism;
    case "subsume off matches on" test_subsume_off_matches_on;
    case "cancel stops at the first class" test_cancel_is_prompt;
    slow_case "case studies keep their pinned counts and schedules"
      test_pinned_case_studies;
    case "subsumption statically applicable" test_subsumption_applicability;
    prop_class_schedules_certify;
    prop_discrete_implies_class;
    prop_subsume_verdict_agreement;
  ]
