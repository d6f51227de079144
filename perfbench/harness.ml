(* Shared machinery of the benchmark: the workload interface, order
   statistics, the in-memory span recorder of the traced run, the
   counters and verdict checks the workloads share, the host record and
   JSON output. *)

exception Wrong_answer of string
(** A verdict that disagrees with its independent reference, or a
    result that fails its certificate check.  It fails the whole run; it
    is never counted as a failed operation. *)

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_answer s)) fmt

(** A planted wrong answer, for the benchmark's own tests: the run must
    refuse it. *)
type plant =
  | No_plant
  | Plant_schedule  (** one delay of the first feasible schedule changed *)
  | Plant_reference  (** the first input's reference verdict flipped *)

type options = {
  short : bool;  (** few inputs, one set-up: the self-test mode *)
  plant : plant;
  corpus_seed : int;  (** campaign seed of the generated corpus *)
}

type pass_report = {
  failed : int;  (** budget exhaustion, Inconclusive or Timed_out *)
  verdicts : string array;
      (** one deterministic line per job slot; a traced pass must
          reproduce the untraced pass's lines byte for byte *)
}

(** One workload.  A pass runs every job slot once, in the order
    [order] draws, after [begin_pass]; [run_job] keeps each job's result
    and [end_pass] checks all of them once the pass clock has
    stopped. *)
type workload = {
  labels : string array;  (** one per job slot *)
  order : Random.State.t -> int array;
  begin_pass : unit -> unit;
  run_job : traced:bool -> int -> unit;
  end_pass : traced:bool -> pass_report;
}

let now = Unix.gettimeofday

(** [time f] is [f ()] and its duration in seconds. *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(** A random permutation of [0 .. n-1] (Fisher–Yates). *)
let shuffled rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- order statistics -------------------------------------------------- *)

(** Linear interpolation between closest ranks; [p] in [0, 1]. *)
let quantile p xs =
  match List.sort compare xs with
  | [] -> invalid_arg "quantile: no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let pos = p *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* ---- tracing ------------------------------------------------------------ *)

(** Spans the benchmark records around its own calls into each layer's
    public functions.  Spans live in memory for one pass; [collect]
    turns them into per-name self times.  When tracing is off, [span]
    only calls its function. *)
module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** -1 for a job's root span *)
    start : float;
    mutable stop : float;
  }

  let on = ref false
  let spans : span list ref = ref []
  let stack : span list ref = ref []
  let next_id = ref 0
  let counters : (string, float) Hashtbl.t = Hashtbl.create 64
  let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

  let reset () =
    spans := [];
    stack := [];
    next_id := 0;
    Hashtbl.reset counters;
    Hashtbl.reset samples

  let open_span name =
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s = { id = !next_id; name; parent; start = now (); stop = nan } in
    incr next_id;
    stack := s :: !stack;
    s

  let close_span s =
    s.stop <- now ();
    stack := List.tl !stack;
    spans := s :: !spans;
    s.stop -. s.start

  (** [timed name f] is [f ()] and its duration in seconds, recorded as
      a span when tracing is on. *)
  let timed name f =
    if !on then begin
      let s = open_span name in
      match f () with
      | v -> (v, close_span s)
      | exception e ->
        ignore (close_span s);
        raise e
    end
    else time f

  let span name f = if !on then fst (timed name f) else f ()

  let count name v =
    if !on then
      Hashtbl.replace counters name
        (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

  let sample name v =
    if !on then
      Hashtbl.replace samples name
        (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

  (** Per-pass table: every counter, plus ["<span>_ms"] self time per
      span name, ["job.wall_ms"] (job root spans' total duration) and
      ["job.self_ms"] (the part of job time no layer span covers). *)
  let collect () =
    let child = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            ((s.stop -. s.start)
            +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
      !spans;
    let table = Hashtbl.copy counters in
    let add k v =
      Hashtbl.replace table k
        (v +. Option.value ~default:0. (Hashtbl.find_opt table k))
    in
    List.iter
      (fun s ->
        let dur = s.stop -. s.start in
        let self =
          dur -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
        in
        if s.parent < 0 then begin
          add "job.wall_ms" (dur *. 1000.);
          add "job.self_ms" (self *. 1000.)
        end
        else add (s.name ^ "_ms") (self *. 1000.))
      !spans;
    (table, Hashtbl.copy samples)
end

(* ---- counters shared by the workloads that run discrete search ---------- *)

module Search = Ezrealtime.Search

(** One discrete search's work, and its time when it stored at most 100
    states: the fixed cost every search pays whatever its size. *)
let record_search ~search_s (m : Search.metrics) =
  let c name v = Trace.count name (float_of_int v) in
  c "sched.stored_states" m.Search.stored;
  c "sched.visited_states" m.Search.visited;
  c "sched.backtracks" m.Search.backtracks;
  c "sched.por_reduced" m.Search.por_reduced;
  c "sched.por_fallback" m.Search.por_fallback;
  if m.Search.stored <= 100 then
    Trace.sample "sched.search_fixed_ms" (search_s *. 1000.)

(** Re-run the same search with the stubborn-set reduction off, timed
    apart from any job, beside the POR-on figures of the job's own
    search. *)
let record_por_off ~on_s ~on_visited model =
  let (_, m), off_s =
    time (fun () ->
        Search.find_schedule
          ~options:{ Search.default_options with por = false }
          model)
  in
  Trace.count "sched.por_on_ms" (on_s *. 1000.);
  Trace.count "sched.por_off_ms" (off_s *. 1000.);
  Trace.count "sched.por_on_visited" (float_of_int on_visited);
  Trace.count "sched.por_off_visited" (float_of_int m.Search.visited)

(* ---- verdicts -------------------------------------------------------------- *)

let parse xml =
  match Ezrealtime.Dsl.of_string xml with
  | Ok spec -> spec
  | Error e -> wrong "parse failed: %s" (Ezrealtime.Dsl.error_to_string e)

(** The reference verdict, ["feasible"] or ["infeasible"]: the copy-based
    discrete engine with the stubborn-set reduction off, the
    repository's differential oracle. *)
let reference name model =
  match
    fst
      (Search.find_schedule
         ~options:{ Search.default_options with incremental = false; por = false }
         model)
  with
  | Ok _ -> "feasible"
  | Error Search.Infeasible -> "infeasible"
  | Error Search.Budget_exhausted ->
    wrong "%s: the reference engine exhausted its budget" name

(** The planted wrong reference. *)
let flip = function "feasible" -> "infeasible" | _ -> "feasible"

(** [schedule_planter plant] passes schedules through unchanged, except
    that under [Plant_schedule] the first one with a positive delay [d]
    comes back with that delay changed to [d + 1]. *)
let schedule_planter plant =
  let module S = Ezrealtime.Schedule in
  let used = ref (plant <> Plant_schedule) in
  let bump (e : S.entry) =
    if (not !used) && e.S.delay > 0 then begin
      used := true;
      (e.S.tid, e.S.delay + 1)
    end
    else (e.S.tid, e.S.delay)
  in
  fun s -> if !used then s else S.of_actions (List.map bump s.S.entries)

(* ---- host record -------------------------------------------------------- *)

(** The process high-water mark, [VmHWM], in MiB. *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Two calibration timings, recorded only and never used to scale a
   metric.  The integer loop follows CPU speed; the random walk over
   64 MiB misses every cache level and follows neighbours contending for
   memory, which the integer loop misses.  They run in a child process
   so their memory stays out of the benchmark's peak RSS. *)
let calibrate () =
  let ms f =
    median
      (List.init 3 (fun _ ->
           let t0 = now () in
           f ();
           (now () -. t0) *. 1000.))
  in
  let int_loop () =
    let acc = ref 0 in
    for i = 1 to 20_000_000 do
      acc := (!acc * 31) + i
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let n = 1 lsl 23 in
  let next = Array.init n Fun.id in
  (* Sattolo's shuffle: one cycle through every slot *)
  let rng = Random.State.make [| 1 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  let mem_walk () =
    let p = ref 0 in
    for _ = 1 to 1_000_000 do
      p := Array.unsafe_get next !p
    done;
    ignore (Sys.opaque_identity !p)
  in
  Printf.printf "%.4f %.4f\n" (ms int_loop) (ms mem_walk)

let run_calibration () =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--calibrate" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let line = In_channel.input_all ic in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  try Scanf.sscanf line " %f %f" (fun a b -> Some (a, b)) with _ -> None

(* ---- JSON --------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_list items = "[" ^ String.concat ", " items ^ "]"

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"
