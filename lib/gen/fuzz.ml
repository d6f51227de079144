module Spec = Ezrt_spec.Spec
module Dsl = Ezrt_spec.Dsl

type divergent = {
  index : int;
  spec : Spec.t;
  divergences : Differ.divergence list;
  shrunk : Spec.t;
}

type stats = {
  seed : int;
  count : int;
  generated : int;
  feasible : int;
  infeasible : int;
  unknown : int;
  divergent : divergent list;
  elapsed_s : float;
}

(* The campaign tally: feasible when any row produced a schedule,
   infeasible only on a proof — the exhaustion of a complete row (the
   dense-time class engines; the discrete ones explore a work-conserving
   choice space) or a witnessed analytic reject, which the differ turns
   into [Infeasible] only once the witness holds — and inconclusive
   otherwise. *)
let tally (report : Differ.report) =
  let results = report.Differ.results in
  let scheduled (r : Differ.engine_result) =
    match r.Differ.verdict with
    | Differ.Feasible _ -> true
    | Differ.Infeasible | Differ.Unknown _ -> false
  in
  let proves_infeasible (r : Differ.engine_result) =
    match r.Differ.verdict with
    | Differ.Infeasible ->
      List.mem r.Differ.engine [ "classes"; "classes-no-por"; "analysis" ]
    | Differ.Feasible _ | Differ.Unknown _ -> false
  in
  if List.exists scheduled results then `Feasible
  else if List.exists proves_infeasible results then `Infeasible
  else `Inconclusive

(* Per-spec observability: one verdict counter bump per engine result,
   so campaigns expose which engine said what how often. *)
let obs_spec_result (report : Differ.report) =
  let open Ezrt_obs in
  List.iter
    (fun (r : Differ.engine_result) ->
      let verdict =
        match r.Differ.verdict with
        | Differ.Feasible _ -> "feasible"
        | Differ.Infeasible -> "infeasible"
        | Differ.Unknown _ -> "unknown"
      in
      Metrics.incr
        (Metrics.counter ~help:"Fuzz verdicts by engine"
           ~labels:[ ("engine", r.Differ.engine); ("verdict", verdict) ]
           "ezrt_fuzz_engine_verdicts_total"))
    report.Differ.results;
  Metrics.incr
    (Metrics.counter ~help:"Fuzzed specifications checked"
       "ezrt_fuzz_specs_total");
  if report.Differ.divergences <> [] then
    Metrics.incr
      (Metrics.counter ~help:"Fuzzed specifications that diverged"
         "ezrt_fuzz_divergent_total")

let run ?(profile = Spec_gen.default) ?max_stored ?class_domains ?engines
    ?(shrink = true) ?log ~seed ~count () =
  let started = Unix.gettimeofday () in
  let feasible = ref 0 and infeasible = ref 0 and unknown = ref 0 in
  let divergent = ref [] in
  let done_specs = ref 0 in
  let progress_snapshot () =
    let dt = Unix.gettimeofday () -. started in
    Printf.sprintf "fuzz[seed %d]: %d/%d specs, %.1f specs/s, %d divergent"
      seed !done_specs count
      (float_of_int !done_specs /. max 1e-9 dt)
      (List.length !divergent)
  in
  Ezrt_obs.Trace.begin_span ~cat:"fuzz"
    ~args:
      [ ("seed", Ezrt_obs.Trace.Int seed); ("count", Ezrt_obs.Trace.Int count) ]
    "fuzz-campaign";
  Fun.protect
    ~finally:(fun () -> Ezrt_obs.Trace.end_span ~cat:"fuzz" "fuzz-campaign")
  @@ fun () ->
  for index = 0 to count - 1 do
    Ezrt_obs.Trace.begin_span ~cat:"fuzz"
      ~args:[ ("index", Ezrt_obs.Trace.Int index) ]
      "fuzz-spec";
    let spec = Spec_gen.spec_at ~profile ~seed index in
    let report = Differ.check ?max_stored ?class_domains ?engines spec in
    obs_spec_result report;
    (match log with Some f -> f index spec report | None -> ());
    incr
      (match tally report with
      | `Feasible -> feasible
      | `Infeasible -> infeasible
      | `Inconclusive -> unknown);
    if report.Differ.divergences <> [] then begin
      Ezrt_obs.Trace.instant ~cat:"fuzz" "divergence"
        ~args:[ ("index", Ezrt_obs.Trace.Int index) ];
      let shrunk =
        if shrink then
          Shrink.minimize
            ~failing:(fun s ->
              (Differ.check ?max_stored ?class_domains ?engines s)
                .Differ.divergences
              <> [])
            spec
        else spec
      in
      divergent :=
        { index; spec; divergences = report.Differ.divergences; shrunk }
        :: !divergent
    end;
    Ezrt_obs.Trace.end_span ~cat:"fuzz"
      ~args:[ ("index", Ezrt_obs.Trace.Int index) ]
      "fuzz-spec";
    incr done_specs;
    Ezrt_obs.Progress.checkpoint progress_snapshot
  done;
  {
    seed;
    count;
    generated = count;
    feasible = !feasible;
    infeasible = !infeasible;
    unknown = !unknown;
    divergent = List.rev !divergent;
    elapsed_s = Unix.gettimeofday () -. started;
  }

let specs_per_s stats =
  if stats.elapsed_s > 0.0 then float_of_int stats.generated /. stats.elapsed_s
  else 0.0

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let write_corpus ~dir stats =
  if stats.divergent <> [] then ensure_dir dir;
  List.map
    (fun d ->
      let path =
        Filename.concat dir (Printf.sprintf "div-seed%d-i%d.xml" stats.seed d.index)
      in
      Dsl.save_file path d.shrunk;
      path)
    stats.divergent
