(* The spec-to-verdict benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Sets up the workload several times (inputs, reference verdicts, one
   checked warm-up pass), then runs closed-loop passes over every input
   for S seconds, checking every verdict after each pass.  With
   --trace 0 it prints the end-to-end metrics; with --trace 1 it
   alternates untraced and traced passes and prints the per-layer
   metrics.  The last line of standard output is the result object; the
   line before it is the run's metadata. *)

open Harness

let workloads =
  [
    ("paper-cases", Paper_cases.setup);
    ("generated-batch", Generated_batch.setup);
  ]

type pass = {
  latency : float array;  (** seconds, by job slot *)
  wall : float;
  report : pass_report;
  minor_words : float;
  major_collections : int;
  layer : ((string, float) Hashtbl.t * (string, float list) Hashtbl.t) option;
}

let run_pass w ~traced order =
  w.begin_pass ();
  Trace.reset ();
  Trace.on := traced;
  let latency = Array.make (Array.length w.labels) 0. in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  Array.iter
    (fun i ->
      let t = now () in
      if traced then Trace.span "job" (fun () -> w.run_job ~traced i)
      else w.run_job ~traced i;
      latency.(i) <- now () -. t)
    order;
  let wall = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  (* checks and the traced run's timed-apart extras run off the clock *)
  let report = Fun.protect ~finally:(fun () -> Trace.on := false) (fun () -> w.end_pass ~traced) in
  {
    latency;
    wall;
    report;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    layer = (if traced then Some (Trace.collect ()) else None);
  }

(* ---- per-layer metrics ---------------------------------------------------- *)

(* Each is computed per traced pass from the span self times and counters
   ([None] when the pass never touched the layer) and reported as the
   median over traced passes.  Times and counts are per-pass totals. *)
let layer_metrics =
  let get k (t, _) = Hashtbl.find_opt t k in
  let div a b x =
    match (a x, b x) with
    | Some a, Some b when b > 0. -> Some (a /. b)
    | _ -> None
  in
  let or_zero_if present k x =
    match get present x with Some _ -> Some (Option.value ~default:0. (get k x)) | None -> None
  in
  let samples k f (_, s) =
    match Hashtbl.find_opt s k with Some (_ :: _ as xs) -> Some (f xs) | _ -> None
  in
  let plain unit k = (k, unit, get k) in
  [
    plain "ms" "spec.parse_ms";
    plain "ms" "spec.validate_ms";
    plain "ms" "blocks.translate_ms";
    plain "count" "blocks.net_places";
    plain "count" "blocks.net_transitions";
    plain "ms" "lint.check_ms";
    plain "ms" "lint.farkas_ms";
    ("lint.share", "ratio", div (get "lint.check_ms") (get "job.wall_ms"));
    plain "count" "lint.certificates";
    plain "ms" "analysis.analyze_ms";
    ( "analysis.decided_ratio",
      "ratio",
      div (or_zero_if "analysis.runs" "analysis.decided") (get "analysis.runs") );
    ("analysis.unknown_ms", "ms", or_zero_if "analysis.runs" "analysis.unknown_ms");
    plain "ms" "sched.search_ms";
    plain "count" "sched.stored_states";
    plain "count" "sched.visited_states";
    ( "sched.states_per_s",
      "1/s",
      div (get "sched.visited_states")
        (fun x -> Option.map (fun ms -> ms /. 1000.) (get "sched.search_ms" x)) );
    plain "count" "sched.backtracks";
    ("sched.search_fixed_ms", "ms", samples "sched.search_fixed_ms" median);
    ( "sched.por_useful_ratio",
      "ratio",
      div (get "sched.por_reduced") (fun x ->
          match (get "sched.por_reduced" x, get "sched.por_fallback" x) with
          | Some a, Some b -> Some (a +. b)
          | _ -> None) );
    ("sched.por_time_ratio", "ratio", div (get "sched.por_on_ms") (get "sched.por_off_ms"));
    ( "sched.por_state_ratio",
      "ratio",
      div (get "sched.por_on_visited") (get "sched.por_off_visited") );
    plain "ms" "sched.class_search_ms";
    plain "count" "sched.class_stored";
    plain "count" "sched.class_subsumed";
    plain "ms" "sched.par_search_ms";
    plain "ms" "sched.par_class_ms";
    ( "sched.par_stored_ratio",
      "ratio",
      samples "sched.par_stored_ratio" (List.fold_left Float.max 0.) );
    ("sched.par_speedup", "ratio", div (get "sched.par_seq_ms") (get "sched.par_paired_ms"));
    plain "count" "sched.par_steals";
    plain "count" "sched.par_shared_hits";
    plain "ms" "sched.portfolio_ms";
    ("sched.portfolio_loser_states", "count", or_zero_if "sched.portfolio_ms" "sched.portfolio_loser_states");
    plain "ms" "sched.certify_ms";
    plain "ms" "sched.timeline_ms";
    plain "ms" "sched.table_ms";
    plain "ms" "codegen.emit_ms";
    plain "bytes" "codegen.c_bytes";
    plain "bytes" "codegen.table_bytes";
    plain "ms" "service.digest_ms";
    plain "ms" "service.cache_find_ms";
    ("service.cache_hit_ms", "ms", or_zero_if "service.cache_finds" "service.cache_hit_ms");
    ( "service.cache_hit_ratio",
      "ratio",
      div (or_zero_if "service.cache_finds" "service.cache_hits") (get "service.cache_finds") );
    plain "ms" "service.cache_store_ms";
    ("trace.unattributed_ratio", "ratio", div (get "job.self_ms") (get "job.wall_ms"));
  ]

(* ---- output ----------------------------------------------------------- *)

let metric_json (name, unit, value) =
  (name, json_obj [ ("value", json_float value); ("unit", json_string unit) ])

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj (List.map metric_json metrics));
       ])

let env_or name default = Option.value ~default (Sys.getenv_opt name)

let calibration_json = function
  | Some (int_ms, mem_ms) ->
    json_obj [ ("int_loop_ms", json_float int_ms); ("memory_walk_ms", json_float mem_ms) ]
  | None -> "null"

(* ---- main ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  let short = ref false and plant = ref No_plant and corpus_seed = ref 42 in
  let calibrate_only = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME paper-cases | generated-batch");
      ("--seed", Arg.Set_int seed, "N order of the jobs in every pass");
      ("--seconds", Arg.Set_int seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--short", Arg.Set short, " few inputs and one set-up (self-test mode)");
      ( "--plant",
        Arg.Symbol
          ( [ "schedule"; "reference" ],
            fun s -> plant := if s = "schedule" then Plant_schedule else Plant_reference ),
        " plant a wrong answer the checks must refuse (self-test mode)" );
      ("--corpus-seed", Arg.Set_int corpus_seed, "N campaign seed of generated-batch's corpus (default 42)");
      ("--calibrate", Arg.Set calibrate_only, " print the two calibration timings and exit");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  if !calibrate_only then (calibrate (); exit 0);
  let setup =
    match List.assoc_opt !workload workloads with
    | Some s -> s
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let traced_run = !trace = 1 in
  let options = { short = !short; plant = !plant; corpus_seed = !corpus_seed } in
  let calibration_before = run_calibration () in
  let attempted = ref 0 and failed = ref 0 in
  match
    (* set-up: inputs, reference verdicts and one checked warm-up pass;
       repeated so its median is steady *)
    let setups = if !short || traced_run then 1 else 5 in
    let warmup_rng = Random.State.make [| !seed; 1 |] in
    let set_up () =
      let w = setup options in
      ignore (run_pass w ~traced:false (w.order warmup_rng));
      w
    in
    (* only the last set-up is kept, so the window runs on the live heap
       of one workload *)
    let setup_runs = List.init (setups - 1) (fun _ -> snd (time set_up)) in
    let w, last = time set_up in
    let setup_runs = setup_runs @ [ last ] in
    let setup_s = median setup_runs in
    Gc.compact ();
    let rng = Random.State.make [| !seed |] in
    let min_passes = if !short then (if traced_run then 2 else 1) else 3 in
    let started = now () in
    let passes = ref [] and last_untraced = ref [||] in
    let k = ref 0 in
    while now () -. started < float_of_int !seconds || !k < min_passes do
      let traced = traced_run && !k mod 2 = 1 in
      let p = run_pass w ~traced (w.order rng) in
      attempted := !attempted + Array.length p.latency;
      failed := !failed + p.report.failed;
      if traced then begin
        Array.iteri
          (fun i v ->
            if v <> !last_untraced.(i) then
              wrong "%s: traced verdict %S differs from untraced %S" w.labels.(i) v
                !last_untraced.(i))
          p.report.verdicts
      end
      else last_untraced := p.report.verdicts;
      passes := p :: !passes;
      incr k
    done;
    (w, setup_s, setup_runs, List.rev !passes)
  with
  | exception Wrong_answer msg ->
    prerr_endline ("perfbench: wrong answer: " ^ msg);
    print_result ~correct:false ~attempted:!attempted ~failed:!failed [];
    exit 1
  | w, setup_s, setup_runs, passes ->
    let calibration_after = run_calibration () in
    let untraced = List.filter (fun p -> p.layer = None) passes in
    let traced = List.filter (fun p -> p.layer <> None) passes in
    let slots = Array.length w.labels in
    (* Contention from other tenants only ever adds time, and on the
       reference host a slow phase can cover most of a window, so each
       input's latency is its minimum over the window's passes (see
       README.md, "Noise"). *)
    let fastest = List.fold_left Float.min infinity in
    let input_ms =
      Array.init slots (fun i -> 1000. *. fastest (List.map (fun p -> p.latency.(i)) untraced))
    in
    (* Throughput comes from whole passes, which pay for every collection
       their jobs trigger; for the same reason as above, the fastest. *)
    let pass_s = fastest (List.map (fun p -> p.wall) untraced) in
    let mean_job p = Array.fold_left ( +. ) 0. p.latency /. float_of_int slots in
    let metrics, absent =
      if traced = [] then
        let lat = Array.to_list input_ms in
        ( [
            ("throughput_jobs_per_s", "jobs/s", float_of_int slots /. pass_s);
            ("latency_p50_ms", "ms", median lat);
            ("latency_p90_ms", "ms", quantile 0.9 lat);
            ("latency_max_ms", "ms", List.fold_left Float.max 0. lat);
            ("setup_s", "s", setup_s);
            ("peak_rss_mb", "MB", peak_rss_mb ());
          ],
          [] )
      else
        let per_pass = List.filter_map (fun p -> p.layer) traced in
        let layer =
          List.map
            (fun (name, unit, f) ->
              match List.filter_map f per_pass with
              | [] -> ((name, unit, 0.), Some name)
              | vs -> ((name, unit, median vs), None))
            layer_metrics
        in
        let runtime =
          [
            ( "gc.minor_words_per_job",
              "words",
              median (List.map (fun p -> p.minor_words /. float_of_int slots) untraced) );
            ( "gc.major_collections_per_pass",
              "count",
              median (List.map (fun p -> float_of_int p.major_collections) untraced) );
            ( "trace.overhead_ratio",
              "ratio",
              median (List.map mean_job traced) /. median (List.map mean_job untraced) );
          ]
        in
        (List.map fst layer @ runtime, List.filter_map snd layer)
    in
    let meta =
      [
        ("workload", json_string !workload);
        ("seed", string_of_int !seed);
        ("corpus_seed", string_of_int !corpus_seed);
        ("seconds", string_of_int !seconds);
        ("trace", string_of_int !trace);
        ("nproc", json_string (env_or "PERFBENCH_NPROC" "unknown"));
        ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
        ("ocaml", json_string Sys.ocaml_version);
        ("commit", json_string (env_or "PERFBENCH_COMMIT" "unknown"));
        ("calibration_before", calibration_json calibration_before);
        ("calibration_after", calibration_json calibration_after);
        ("setup_runs_s", json_list (List.map json_float setup_runs));
        ("job_slots", string_of_int slots);
        ("untraced_passes", string_of_int (List.length untraced));
        ("untraced_pass_s", json_list (List.map (fun p -> Printf.sprintf "%.4f" p.wall) untraced));
        ("traced_passes", string_of_int (List.length traced));
        ("absent", json_list (List.map json_string absent));
      ]
      @
      if slots <= 16 then
        [
          ( "input_fastest_ms",
            json_obj
              (Array.to_list (Array.mapi (fun i l -> (l, json_float input_ms.(i))) w.labels)) );
        ]
      else []
    in
    print_endline (json_obj [ ("meta", json_obj meta) ]);
    print_result ~correct:true ~attempted:!attempted ~failed:!failed metrics
