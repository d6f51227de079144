(* generated-batch: the first specs of a Spec_gen campaign, each parsed
   from its XML and submitted cold, then resubmitted once against the
   warm cache, through Server.solve on the benchmark's own domain — the
   work of `ezrt batch` run twice, where per-job fixed costs dominate:
   parse, validate, digest, translate, the analytic pre-pass, the
   one-domain portfolio, cache stores and re-proven hits.  Lint never
   runs.  The worker pool is left out: with one closed-loop client its
   queue is always empty, and a worker domain beside a client domain on a
   2-core host measures the OS scheduler rather than the service. *)

open Ezrealtime
open Harness

let max_states = 500_000

let actions_of (model : Translate.t) (schedule : Schedule.t) =
  List.map
    (fun (e : Schedule.entry) ->
      (Pnet.transition_name model.Translate.net e.Schedule.tid, e.Schedule.delay))
    schedule.Schedule.entries

let feasible schedule =
  Server.Feasible
    { firings = Schedule.length schedule; makespan = Schedule.makespan schedule }

(* Server.solve replayed call for call: validate, digest, translate,
   cache lookup, analytic pre-pass, certification of an analytic
   acceptance, the portfolio (pre-pass off) only when the pre-pass
   decided nothing, and the cache store. *)
let traced_solve cache xml =
  let spec = Trace.span "spec.parse" (fun () -> parse xml) in
  Trace.span "spec.validate" (fun () ->
      match (Validate.check spec).Validate.errors with
      | [] -> ()
      | e :: _ -> wrong "%s: invalid: %s" spec.Spec.name (Validate.error_to_string e));
  let started = now () in
  let digest = Trace.span "service.digest" (fun () -> Spec_digest.digest spec) in
  let model = Trace.span "blocks.translate" (fun () -> Translate.translate spec) in
  Trace.count "blocks.net_places" (float_of_int (Pnet.place_count model.Translate.net));
  Trace.count "blocks.net_transitions"
    (float_of_int (Pnet.transition_count model.Translate.net));
  let finish ?(cached = false) ~engine ~stored verdict =
    {
      Server.verdict;
      digest;
      engine;
      cached;
      elapsed_ms = (now () -. started) *. 1000.;
      stored_states = stored;
    }
  in
  let hit, find_s =
    Trace.timed "service.cache_find" (fun () ->
        Result_cache.find cache ~digest ~spec ~model)
  in
  Trace.count "service.cache_finds" 1.;
  let count_hit () =
    Trace.count "service.cache_hits" 1.;
    Trace.count "service.cache_hit_ms" (find_s *. 1000.)
  in
  match hit with
  | Some (Result_cache.Hit_feasible (schedule, _)) ->
    count_hit ();
    finish ~cached:true ~engine:"cache" ~stored:0 (feasible schedule)
  | Some (Result_cache.Hit_infeasible w) ->
    count_hit ();
    finish ~cached:true ~engine:"cache" ~stored:0 (Server.Infeasible (Some w))
  | None -> (
    let store ~engine ~stored verdict =
      Trace.span "service.cache_store" (fun () ->
          Result_cache.store cache ~digest
            {
              Result_cache.verdict;
              engine;
              elapsed_ms = (now () -. started) *. 1000.;
              stored_states = stored;
            })
    in
    let analysis, analyze_s =
      Trace.timed "analysis.analyze" (fun () -> Schedulability.analyze model)
    in
    Trace.count "analysis.runs" 1.;
    let decided =
      match analysis with
      | Schedulability.Infeasible w -> Some (Error w)
      | Schedulability.Feasible actions -> (
        let schedule = Schedule.of_actions actions in
        match
          Trace.span "sched.certify" (fun () -> Validator.certify model schedule)
        with
        | Ok _ -> Some (Ok schedule)
        | Error _ -> None)
      | Schedulability.Unknown _ ->
        Trace.count "analysis.unknown_ms" (analyze_s *. 1000.);
        None
    in
    if decided <> None then Trace.count "analysis.decided" 1.;
    match decided with
    | Some (Error w) ->
      store ~engine:"prepass" ~stored:0 (Result_cache.Infeasible w);
      finish ~engine:"prepass" ~stored:0 (Server.Infeasible (Some w))
    | Some (Ok schedule) ->
      store ~engine:"prepass" ~stored:0
        (Result_cache.Feasible (actions_of model schedule));
      finish ~engine:"prepass" ~stored:0 (feasible schedule)
    | None -> (
      let race =
        Trace.span "sched.portfolio" (fun () ->
            Portfolio.find_schedule ~max_stored:max_states ~domains:1
              ~analysis:false model)
      in
      let stored =
        List.fold_left
          (fun acc (a : Portfolio.attempt) ->
            let m = a.Portfolio.metrics in
            (match a.Portfolio.config.Portfolio.engine with
            | Portfolio.Discrete ->
              Trace.count "sched.search_ms" (m.Search.elapsed_s *. 1000.);
              record_search ~search_s:m.Search.elapsed_s m
            | Portfolio.Classes ->
              Trace.count "sched.class_search_ms" (m.Search.elapsed_s *. 1000.);
              Trace.count "sched.class_stored" (float_of_int m.Search.stored)
            | Portfolio.Parallel _ | Portfolio.Class_parallel _ -> ());
            if Some a.Portfolio.config <> race.Portfolio.winner then
              Trace.count "sched.portfolio_loser_states"
                (float_of_int m.Search.stored);
            acc + m.Search.stored)
          0 race.Portfolio.attempts
      in
      let engine =
        match race.Portfolio.winner with
        | Some cfg -> Portfolio.config_to_string cfg
        | None -> "portfolio"
      in
      match race.Portfolio.outcome with
      | Ok schedule ->
        store ~engine ~stored (Result_cache.Feasible (actions_of model schedule));
        finish ~engine ~stored (feasible schedule)
      | Error Search.Infeasible -> finish ~engine ~stored (Server.Infeasible None)
      | Error Search.Budget_exhausted -> finish ~engine ~stored Server.Inconclusive))

let setup (o : options) =
  let n = if o.short then 40 else 500 in
  let xmls =
    Array.init n (fun i -> Dsl.to_string (Spec_gen.spec_at ~seed:o.corpus_seed i))
  in
  let specs = Array.map parse xmls in
  let models = Array.map Translate.translate specs in
  let refs = Array.mapi (fun i m -> reference specs.(i).Spec.name m) models in
  if o.plant = Plant_reference then refs.(0) <- flip refs.(0);
  let cache = ref (Result_cache.create ~capacity:n ()) in
  (* slot k < n is spec k submitted cold, slot n + k its warm resubmission *)
  let outcomes = Array.make (2 * n) None in
  let run_job ~traced k =
    let xml = xmls.(k mod n) in
    let o =
      if traced then traced_solve !cache xml
      else
        match Server.solve ~cache:!cache ~max_states (parse xml) with
        | Ok o -> o
        | Error e -> wrong "%s: %s" specs.(k mod n).Spec.name e
    in
    outcomes.(k) <- Some o
  in
  let end_pass ~traced:_ =
    let failed = ref 0 in
    let planted = schedule_planter o.plant in
    let get k =
      match outcomes.(k) with
      | Some o -> o
      | None -> wrong "slot %d: no result" k
    in
    for k = 0 to n - 1 do
      let spec = specs.(k) and model = models.(k) in
      let name = spec.Spec.name in
      let cold = get k and warm = get (n + k) in
      let decided =
        List.map
          (fun (o : Server.outcome) ->
            let verdict =
              match o.Server.verdict with
              | Server.Feasible _ -> Some "feasible"
              | Server.Infeasible w ->
                Option.iter
                  (fun w ->
                    if not (Schedulability.witness_holds spec w) then
                      wrong "%s: the infeasibility witness does not hold" name)
                  w;
                Some "infeasible"
              | Server.Timed_out | Server.Inconclusive ->
                incr failed;
                None
            in
            Option.iter
              (fun v ->
                if v <> refs.(k) then
                  wrong "%s: verdict %s, reference %s" name v refs.(k))
              verdict;
            verdict <> None)
          [ cold; warm ]
        |> List.for_all Fun.id
      in
      if decided && Server.verdict_line cold <> Server.verdict_line warm then
        wrong "%s: warm verdict %S differs from cold %S" name
          (Server.verdict_line warm) (Server.verdict_line cold);
      (* every feasible answer, the warm hit included, is backed by the
         cached schedule: it must certify and match the reported shape *)
      match cold.Server.verdict with
      | Server.Feasible { firings; makespan } -> (
        match Result_cache.find !cache ~digest:cold.Server.digest ~spec ~model with
        | Some (Result_cache.Hit_feasible (schedule, _)) ->
          let schedule = planted schedule in
          (match Validator.certify model schedule with
          | Ok _ -> ()
          | Error f ->
            wrong "%s: schedule fails certification: %s" name
              (Validator.certification_failure_to_string f));
          if Schedule.length schedule <> firings || Schedule.makespan schedule <> makespan
          then wrong "%s: cached schedule does not match the verdict" name
        | _ -> wrong "%s: feasible verdict without a cached schedule" name)
      | _ -> ()
    done;
    {
      failed = !failed;
      verdicts = Array.init (2 * n) (fun k -> Server.verdict_line (get k));
    }
  in
  {
    labels =
      Array.init (2 * n) (fun k ->
          specs.(k mod n).Spec.name ^ if k < n then "/cold" else "/warm");
    order =
      (fun rng ->
        Array.append (shuffled rng n) (Array.map (( + ) n) (shuffled rng n)));
    begin_pass =
      (fun () ->
        cache := Result_cache.create ~capacity:n ();
        Array.fill outcomes 0 (2 * n) None);
    run_job;
    end_pass;
  }
