(* paper-cases: the seven specs/*.xml through the path `ezrt schedule`
   runs by default — parse, validate, lint pre-pass (translate + lint),
   then Ezrealtime.synthesize.  These are the paper's own inputs on the
   path users run; lint and discrete search dominate, while the analytic
   pre-pass, the portfolio and the service never run. *)

open Ezrealtime
open Harness

type result = {
  model : Translate.t;  (** the translation lint saw *)
  lint : Lint.report;
  synth : (artifact, error) Stdlib.result;
  search_s : float;  (** traced jobs only: the search span's duration *)
}

let validate spec =
  match (Validate.check spec).Validate.errors with
  | [] -> ()
  | e :: _ -> wrong "%s: invalid: %s" spec.Spec.name (Validate.error_to_string e)

(* The untraced job: the public entry points, as `ezrt schedule` calls
   them. *)
let job xml =
  let spec = parse xml in
  validate spec;
  let model = Translate.translate spec in
  let lint = Lint.check_model model in
  let synth = synthesize spec in
  { model; lint; synth; search_s = 0. }

(* The traced job: the same calls, with [synthesize] replayed call for
   call (validate, translate, search, timeline, certify, table, emit) so
   each layer gets its own span. *)
let traced_job xml =
  let spec = Trace.span "spec.parse" (fun () -> parse xml) in
  Trace.span "spec.validate" (fun () -> validate spec);
  let lint_model = Trace.span "blocks.translate" (fun () -> Translate.translate spec) in
  let lint = Trace.span "lint.check" (fun () -> Lint.check_model lint_model) in
  Trace.span "spec.validate" (fun () -> validate spec);
  let model = Trace.span "blocks.translate" (fun () -> Translate.translate spec) in
  let (outcome, metrics), search_s =
    Trace.timed "sched.search" (fun () -> Search.find_schedule model)
  in
  let synth =
    match outcome with
    | Error f -> Error (No_schedule (f, metrics))
    | Ok schedule -> (
      let segments =
        Trace.span "sched.timeline" (fun () -> Timeline.of_schedule model schedule)
      in
      match Trace.span "sched.certify" (fun () -> Validator.check model segments) with
      | Error vs -> Error (Not_certified vs)
      | Ok () ->
        let table = Trace.span "sched.table" (fun () -> Table.of_segments segments) in
        let c_program = Trace.span "codegen.emit" (fun () -> Emit.program model table) in
        Ok { spec; model; schedule; segments; table; c_program; metrics })
  in
  { model = lint_model; lint; synth; search_s }

(* ---- the class and parallel engines, run beside the traced jobs ---------- *)

type engine = Classes | Parallel | Class_parallel

let engine_name = function
  | Classes -> "classes"
  | Parallel -> "parallel"
  | Class_parallel -> "class-parallel"

let domains = 2

type apart = {
  verdict : (Schedule.t, string) Stdlib.result;
      (** [Error "infeasible"] or [Error "inconclusive"] *)
  elapsed_s : float;
  stored : int;
}

let class_verdict = function
  | Ok s -> Ok s
  | Error Class_search.Infeasible -> Error "infeasible"
  | Error (Class_search.Budget_exhausted | Class_search.Extraction_failed) ->
    Error "inconclusive"

(** [run_apart engine model] runs one engine outside any job, counts its
    time as that layer's time with its counters, and returns its
    result. *)
let run_apart engine model =
  let c name v = Trace.count name (float_of_int v) in
  let timed name f =
    let r, s = time f in
    Trace.count (name ^ "_ms") (s *. 1000.);
    (r, s)
  in
  match engine with
  | Classes ->
    let (o, m), s = timed "sched.class_search" (fun () -> Class_search.find_schedule model) in
    c "sched.class_stored" m.Class_search.stored;
    c "sched.class_subsumed" m.Class_search.subsumed;
    { verdict = class_verdict o; elapsed_s = s; stored = m.Class_search.stored }
  | Parallel ->
    let r, s = timed "sched.par_search" (fun () -> Par_search.find_schedule ~domains model) in
    c "sched.par_steals" r.Par_search.steals;
    c "sched.par_shared_hits" r.Par_search.shared_hits;
    let verdict =
      match r.Par_search.outcome with
      | Ok s -> Ok s
      | Error Search.Infeasible -> Error "infeasible"
      | Error Search.Budget_exhausted -> Error "inconclusive"
    in
    { verdict; elapsed_s = s; stored = r.Par_search.metrics.Search.stored }
  | Class_parallel ->
    let r, s = timed "sched.par_class" (fun () -> Par_class.find_schedule ~domains model) in
    c "sched.par_steals" r.Par_class.steals;
    {
      verdict = class_verdict r.Par_class.outcome;
      elapsed_s = s;
      stored = r.Par_class.metrics.Class_search.stored;
    }

(** A decided verdict must equal [reference], and a schedule must
    certify. *)
let check_apart ~label ~reference model r =
  match r.verdict with
  | Ok schedule -> (
    match Validator.certify model schedule with
    | Ok _ ->
      if reference <> "feasible" then wrong "%s: verdict feasible, reference %s" label reference
    | Error f ->
      wrong "%s: schedule fails certification: %s" label
        (Validator.certification_failure_to_string f))
  | Error "inconclusive" -> ()
  | Error v -> if v <> reference then wrong "%s: verdict %s, reference %s" label v reference

(** A parallel run against the sequential engine's run of the same input:
    the speed-up and stored-state ratio counters. *)
let record_pair ~seq_s ~seq_stored r =
  Trace.count "sched.par_seq_ms" (seq_s *. 1000.);
  Trace.count "sched.par_paired_ms" (r.elapsed_s *. 1000.);
  Trace.sample "sched.par_stored_ratio"
    (float_of_int r.stored /. float_of_int (max 1 seq_stored))

(* ---- the workload ----------------------------------------------------------- *)

let load_specs () =
  let dir = "specs" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith "specs/ not found: run from the root of the repository";
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xml")
  |> List.sort compare
  |> List.map (fun f ->
         ( Filename.chop_suffix f ".xml",
           In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all ))
  |> Array.of_list

let setup (o : options) =
  let inputs = load_specs () in
  let inputs = if o.short then Array.sub inputs 0 (min 3 (Array.length inputs)) else inputs in
  let refs =
    Array.map (fun (name, xml) -> reference name (Translate.translate (parse xml))) inputs
  in
  if o.plant = Plant_reference then refs.(0) <- flip refs.(0);
  let n = Array.length inputs in
  let results = Array.make n None in
  let run_job ~traced i =
    let xml = snd inputs.(i) in
    let r = if traced then traced_job xml else job xml in
    results.(i) <- Some r
  in
  let end_pass ~traced =
    let failed = ref 0 in
    let planted = schedule_planter o.plant in
    let verdicts =
      Array.mapi
        (fun i r ->
          let name = fst inputs.(i) in
          let r = match r with Some r -> r | None -> wrong "%s: no result" name in
          List.iter
            (fun cert ->
              if not (Invariants.is_invariant r.model.Translate.net cert) then
                wrong "%s: a lint certificate is not a P-invariant" name)
            r.lint.Lint.certificates;
          let verdict =
            match r.synth with
            | Ok a ->
              (match Validator.certify a.model (planted a.schedule) with
              | Ok _ -> ()
              | Error f ->
                wrong "%s: schedule fails certification: %s" name
                  (Validator.certification_failure_to_string f));
              "feasible"
            | Error (No_schedule (Search.Infeasible, _)) -> "infeasible"
            | Error (No_schedule (Search.Budget_exhausted, _)) ->
              incr failed;
              "inconclusive"
            | Error e -> wrong "%s: %s" name (error_to_string e)
          in
          if verdict <> "inconclusive" && verdict <> refs.(i) then
            wrong "%s: verdict %s, reference %s" name verdict refs.(i);
          if traced then begin
            let net = r.model.Translate.net in
            Trace.count "blocks.net_places" (float_of_int (Pnet.place_count net));
            Trace.count "blocks.net_transitions"
              (float_of_int (Pnet.transition_count net));
            Trace.count "lint.certificates"
              (float_of_int (List.length r.lint.Lint.certificates));
            (* Farkas elimination alone, timed apart from any job *)
            let _, farkas_s =
              time (fun () -> Invariants.p_invariants ~max_rows:20_000 net)
            in
            Trace.count "lint.farkas_ms" (farkas_s *. 1000.);
            match r.synth with
            | Ok { metrics = m; _ } | Error (No_schedule (_, m)) ->
              record_search ~search_s:r.search_s m;
              record_por_off ~on_s:r.search_s ~on_visited:m.Search.visited r.model;
              (* the class and parallel engines on the same model, timed
                 apart: those layers on the paper's own inputs *)
              let apart engine =
                let a = run_apart engine r.model in
                check_apart ~label:(name ^ "/" ^ engine_name engine) ~reference:refs.(i)
                  r.model a;
                a
              in
              let classes = apart Classes in
              record_pair ~seq_s:r.search_s ~seq_stored:m.Search.stored (apart Parallel);
              record_pair ~seq_s:classes.elapsed_s ~seq_stored:classes.stored
                (apart Class_parallel);
              Result.iter
                (fun a ->
                  Trace.count "codegen.c_bytes" (float_of_int (String.length a.c_program));
                  Trace.count "codegen.table_bytes"
                    (float_of_int
                       (Emit.table_footprint Target.hosted a.table).Emit.table_bytes))
                r.synth
            | Error _ -> ()
          end;
          match r.synth with
          | Ok a ->
            Printf.sprintf "%s feasible firings=%d makespan=%d c=%s" name
              (Schedule.length a.schedule) (Schedule.makespan a.schedule)
              (Digest.to_hex (Digest.string a.c_program))
          | Error _ -> name ^ " " ^ verdict)
        results
    in
    { failed = !failed; verdicts }
  in
  {
    labels = Array.map fst inputs;
    order = (fun rng -> shuffled rng n);
    begin_pass = (fun () -> Array.fill results 0 n None);
    run_job;
    end_pass;
  }
