module Translate = Ezrt_blocks.Translate
module Class_search = Ezrt_sched.Class_search
module Par_class = Ezrt_sched.Par_class
module Schedule = Ezrt_sched.Schedule
module Timeline = Ezrt_sched.Timeline
module Validator = Ezrt_sched.Validator
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let test_single_domain_matches_sequential () =
  (* one worker owns one LIFO deque: the expansion order is exactly the
     sequential DFS's, so outcomes and counters are the ones pinned for
     the sequential class search *)
  List.iter
    (fun (name, spec) ->
      let r = Par_class.find_schedule ~domains:1 (Translate.translate spec) in
      Test_class_search.check_pinned name (r.Par_class.outcome, r.Par_class.metrics);
      check_int (name ^ " one domain") 1 r.Par_class.domains_used;
      check_int (name ^ " no steals") 0 r.Par_class.steals)
    Case_studies.all

let test_two_domains_agree_and_certify () =
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let seq = fst (Class_search.find_schedule model) in
      let r = Par_class.find_schedule ~domains:2 model in
      check_bool (name ^ " verdict agrees") true
        (Result.is_ok seq = Result.is_ok r.Par_class.outcome);
      match r.Par_class.outcome with
      | Ok schedule ->
        let segments = Timeline.of_schedule model schedule in
        check_bool (name ^ " certifies") true
          (Result.is_ok (Validator.check model segments))
      | Error _ -> ())
    Case_studies.all

let test_budget () =
  let model = Translate.translate Case_studies.mine_pump in
  match (Par_class.find_schedule ~max_stored:2 ~domains:2 model).Par_class.outcome with
  | Error Class_search.Budget_exhausted -> ()
  | Error f ->
    Alcotest.failf "wrong failure: %s" (Class_search.failure_to_string f)
  | Ok _ -> Alcotest.fail "expected budget exhaustion"

let test_cancel () =
  let model = Translate.translate Case_studies.mine_pump in
  let r = Par_class.find_schedule ~domains:2 ~cancel:(fun () -> true) model in
  match r.Par_class.outcome with
  | Error Class_search.Budget_exhausted -> ()
  | Error f ->
    Alcotest.failf "wrong failure: %s" (Class_search.failure_to_string f)
  | Ok _ -> Alcotest.fail "cancelled search cannot succeed"

let test_infeasible_with_subsumption () =
  (* the relations workload: exhaustive, subsumption-heavy — both
     verdict and the store's subsumed counter are checked *)
  let model = Translate.translate Test_class_search.relations_spec in
  let r = Par_class.find_schedule ~domains:2 model in
  (match r.Par_class.outcome with
  | Error Class_search.Infeasible -> ()
  | Error f ->
    Alcotest.failf "wrong failure: %s" (Class_search.failure_to_string f)
  | Ok _ -> Alcotest.fail "relations spec is infeasible");
  check_bool "subsumption fired" true
    (r.Par_class.store.Ezrt_tpn.Class_store.subsumed > 0)

let prop_parallel_agrees =
  qcheck ~count:20 "parallel class verdict matches sequential" arbitrary_spec
    (fun spec ->
      let model = Translate.translate spec in
      let seq = fst (Class_search.find_schedule model) in
      let par = (Par_class.find_schedule ~domains:2 model).Par_class.outcome in
      Result.is_ok seq = Result.is_ok par)

let suite =
  [
    case "domains=1 identical to sequential" test_single_domain_matches_sequential;
    slow_case "domains=2 agrees and certifies" test_two_domains_agree_and_certify;
    case "budget exhaustion" test_budget;
    case "prompt cancellation" test_cancel;
    case "infeasible relations with subsumption" test_infeasible_with_subsumption;
    prop_parallel_agrees;
  ]
