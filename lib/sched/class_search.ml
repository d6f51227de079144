open Ezrt_tpn
module Translate = Ezrt_blocks.Translate

type metrics = {
  stored : int;
  visited : int;
  eager : int;
  backtracks : int;
  subsumed : int;
  max_depth : int;
  elapsed_s : float;
  por_reduced : int;
  por_fallback : int;
  por_skipped : int;
}

type failure =
  | Infeasible
  | Budget_exhausted
  | Extraction_failed

let failure_to_string = function
  | Infeasible -> "no feasible schedule exists (dense-time class graph)"
  | Budget_exhausted -> "stored-class budget exhausted"
  | Extraction_failed -> "class path could not be realized at integer times"

let is_final model (c : State_class.t) =
  c.State_class.marking.(model.Translate.final_place) >= 1

let is_dead model (c : State_class.t) =
  List.exists
    (fun pdm -> c.State_class.marking.(pdm) > 0)
    model.Translate.dead_places

(* Fast path: realize the sequence at the earliest legal integer
   times, step by step. *)
let extract_greedy net sequence =
  let rec go s acc = function
    | [] -> Some (Schedule.of_actions (List.rev acc))
    | tid :: rest ->
      if not (State.is_enabled s tid) then None
      else
        let q = State.dlb net s tid in
        let lo, hi = State.firing_domain net s tid in
        if q < lo || not (Time_interval.bound_le (Time_interval.Finite q) hi)
        then None
        else go (State.fire net s tid q) ((tid, q) :: acc) rest
  in
  go (State.initial net) [] sequence

(* Exact path: the firing dates S_1..S_n of the sequence form a system
   of difference constraints —

   - monotonicity           S_{i-1} - S_i       <= 0
   - interval of the firing EFT <= S_i - S_e <= LFT  (e = enabling step)
   - urgency of bystanders  S_k - S_e <= LFT(t) for every transition t
     enabled from step e through firing k (time cannot pass beyond an
     enabled transition's latest firing time)

   Enabling steps follow Def 3.1 persistence.  The system is solved by
   Bellman-Ford; the earliest solution realizes the class path, which
   is exactly a timed run of the net. *)
let extract_exact (net : Pnet.t) sequence =
  let seq = Array.of_list sequence in
  let n = Array.length seq in
  (* untimed walk computing per-step enabling points *)
  let n_trans = Pnet.transition_count net in
  let enabled_since = Array.make n_trans (-1) in
  (* -1 = disabled; otherwise the step index (0 = initially) whose date
     starts the clock *)
  let marking = Array.copy net.Pnet.m0 in
  for t = 0 to n_trans - 1 do
    if State.marking_enables net marking t then enabled_since.(t) <- 0
  done;
  (* constraints as (a, b, w) meaning S_b - S_a <= w, nodes 0..n *)
  let constraints = ref [] in
  let add a b w = constraints := (a, b, w) :: !constraints in
  for i = 1 to n do
    add i (i - 1) 0 (* S_{i-1} <= S_i *)
  done;
  let ok = ref true in
  for i = 1 to n do
    if !ok then begin
      let tid = seq.(i - 1) in
      let e = enabled_since.(tid) in
      if e < 0 then ok := false
      else begin
        let itv = Pnet.interval net tid in
        (* S_i - S_e >= EFT  <=>  S_e - S_i <= -EFT *)
        add i e (-Time_interval.eft itv);
        (match Time_interval.lft itv with
        | Time_interval.Finite l -> add e i l
        | Time_interval.Infinity -> ());
        (* urgency: every transition enabled across this firing bounds
           this step's date *)
        for t = 0 to n_trans - 1 do
          if t <> tid && enabled_since.(t) >= 0 then
            match Time_interval.lft (Pnet.interval net t) with
            | Time_interval.Finite l -> add enabled_since.(t) i l
            | Time_interval.Infinity -> ()
        done;
        (* fire untimed, update enabling points per Def 3.1 *)
        let before = Array.copy marking in
        Array.iter (fun (p, w) -> marking.(p) <- marking.(p) - w) net.Pnet.pre.(tid);
        Array.iter (fun (p, w) -> marking.(p) <- marking.(p) + w) net.Pnet.post.(tid);
        for t = 0 to n_trans - 1 do
          if not (State.marking_enables net marking t) then enabled_since.(t) <- -1
          else if t = tid || not (State.marking_enables net before t) then
            enabled_since.(t) <- i
          (* persistent: keep its enabling point *)
        done
      end
    end
  done;
  if not !ok then None
  else begin
    (* earliest solution: x_i = -d(i) with d = shortest paths from node
       0 over reversed edges (b -> a, weight w) *)
    let dist = Array.make (n + 1) Dbm.infinity in
    dist.(0) <- 0;
    let edges = List.map (fun (a, b, w) -> (b, a, w)) !constraints in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds <= n + 1 do
      changed := false;
      incr rounds;
      List.iter
        (fun (src, dst, w) ->
          if dist.(src) < Dbm.infinity && dist.(src) + w < dist.(dst) then begin
            dist.(dst) <- dist.(src) + w;
            changed := true
          end)
        edges
    done;
    if !changed then None (* negative cycle: infeasible *)
    else begin
      let dates = Array.init (n + 1) (fun i -> -dist.(i)) in
      if Array.exists (fun d -> d < 0) dates then None
      else begin
        let actions =
          List.init n (fun i -> (seq.(i), dates.(i + 1) - dates.(i)))
        in
        Some (Schedule.of_actions actions)
      end
    end
  end

let extraction_counter result =
  Ezrt_obs.Metrics.incr
    (Ezrt_obs.Metrics.counter
       ~help:"Class-path realizations by extraction strategy"
       ~labels:[ ("result", result) ]
       "ezrt_class_extractions_total")

let extract net sequence =
  match extract_greedy net sequence with
  | Some schedule ->
    extraction_counter "greedy";
    Some schedule
  | None -> (
    Ezrt_obs.Trace.instant ~cat:"search" "extract-greedy-failed";
    match extract_exact net sequence with
    | Some schedule -> (
      (* certify against the step semantics before handing it out *)
      match Schedule.replay net schedule with
      | (_ : State.t) ->
        extraction_counter "exact";
        Some schedule
      | exception Invalid_argument _ ->
        extraction_counter "failed";
        Ezrt_obs.Trace.instant ~cat:"search" "extract-exact-failed";
        None)
    | None ->
      extraction_counter "failed";
      Ezrt_obs.Trace.instant ~cat:"search" "extract-exact-failed";
      None)

let no_cancel () = false

(* Candidate order: smallest delay lower bound first (ties by id) —
   the dense-time analogue of the discrete engine's earliest-first
   policy. *)
let order_candidates net c candidates =
  let key tid =
    let lo, _ = State_class.delay_bounds net c tid in
    (lo, tid)
  in
  List.map snd
    (List.sort compare (List.map (fun tid -> (key tid, tid)) candidates))

(* Inclusion pruning is sound for the feasibility verdict only when
   priorities cannot un-suppress a transition inside the subsumed
   class.  Candidates of a contained class are a subset of the
   container's, so the minimum priority over them can only be WORSE
   (numerically larger); a transition filtered out in the container
   could then survive the filter in the contained class and open a
   branch the container never explores.  Two structural conditions
   rule that out for the nets our translation emits:

   (A) every transition with a better-than-default priority has static
       interval [0,0] — its time-firability is then marking-determined
       (an enabled [0,0] transition always can fire first), so it is a
       candidate in the contained class iff it is one in the
       container, and the priority filter picks the same winners;
   (B) every transition with a worse-than-default priority marks a
       dead place — it only ever fires into a state the search prunes
       as dead, so losing it in the contained class cannot lose a
       feasible witness, and a miss reachable below the contained
       class is equally reachable below the container.

   The translation satisfies both (deadline_ok/finish/bookkeeping are
   immediate; only deadline-miss watchdogs are demoted, and they mark
   [pdm]); hand-written nets may not, so subsumption silently turns
   itself off when the check fails. *)
let subsumption_applicable (model : Translate.t) =
  let net = model.Translate.net in
  let default = Pnet.default_priority in
  let marks_dead tid =
    Array.exists
      (fun (p, _) -> List.mem p model.Translate.dead_places)
      net.Pnet.post.(tid)
  in
  let immediate tid =
    let itv = Pnet.interval net tid in
    Time_interval.eft itv = 0 && Time_interval.lft itv = Time_interval.Finite 0
  in
  let rec go tid =
    tid < 0
    ||
    let p = Pnet.priority net tid in
    (if p < default then immediate tid
     else if p > default then marks_dead tid
     else true)
    && go (tid - 1)
  in
  go (Pnet.transition_count net - 1)

(* Class-level stubborn-set gate: the discrete reduction's urgency
   condition "min DUB = 0" becomes "some enabled transition has delay
   upper bound 0" — no time can elapse before the next firing, so the
   exchange argument of {!Ezrt_tpn.Indep} applies to the class graph
   verbatim (every delay in scope is the point 0 and the domain is
   unchanged by commuting independent firings).  Probes are only
   evaluated when the shared gate in {!Search.apply_por} asks for
   them. *)
let apply_por ~ind net (c : State_class.t) firable =
  let enabled tid =
    Array.exists (fun t -> t = tid) c.State_class.enabled
  in
  let dub_zero tid = snd (State_class.delay_bounds net c tid) = 0 in
  let urgent () = Array.exists dub_zero c.State_class.enabled in
  Search.apply_por ~ind ~urgent ~enabled ~dub_zero
    ~tokens:(fun p -> c.State_class.marking.(p))
    firable

let metrics_of_stats (s : Work_steal.stats) ~subsumed elapsed_s =
  {
    stored = s.stored;
    visited = s.stored + s.eager;
    eager = s.eager;
    backtracks = s.backtracks;
    subsumed;
    max_depth = s.max_depth;
    elapsed_s;
    por_reduced = s.por_reduced;
    por_fallback = s.por_fallback;
    por_skipped = s.por_skipped;
  }

let to_search_metrics (m : metrics) =
  {
    Search.stored = m.stored;
    visited = m.visited;
    eager = m.eager;
    backtracks = m.backtracks;
    max_depth = m.max_depth;
    elapsed_s = m.elapsed_s;
    por_reduced = m.por_reduced;
    por_fallback = m.por_fallback;
    por_skipped = m.por_skipped;
  }

(* Both class engines flush through {!Search.flush_metrics} (so the
   ezrt_search_*/ezrt_por_* series mean the same thing under every
   engine label) plus the class-store extras. *)
let flush_class_metrics ~engine (m : metrics) (store : Class_store.stats) =
  Search.flush_metrics ~engine (to_search_metrics m);
  let open Ezrt_obs in
  let labels = [ ("engine", engine) ] in
  let bump name help v = Metrics.add (Metrics.counter ~help ~labels name) v in
  bump "ezrt_class_store_entries_total" "Canonical domains stored"
    store.Class_store.entries;
  bump "ezrt_class_store_contended_total"
    "Class-store stripe locks that had to wait"
    store.Class_store.contended;
  bump "ezrt_class_subsumed_total"
    "Classes pruned by inclusion in an already-explored domain"
    store.Class_store.subsumed

(* --- the driver's class instance -------------------------------------- *)
(* Classes are immutable values ([State_class.fire] is pure), so there
   is no incremental engine to reposition: a node carries its class and
   the reversed transition path that produced it, and moving between
   nodes is free.  What is shared is the Class_store: a node claims its
   canonical class at first visit (Fresh) before expanding; Duplicate
   and Subsumed answers mean some worker already owns an equal or
   containing domain under the same marking, so the subtree is pruned.
   The first claimant explores the whole choice space below a class
   before the DFS ever reaches a second copy, so skipping duplicates
   loses no witness, and a class-graph cycle terminates; subsumed
   classes are skipped on the same argument (see
   [subsumption_applicable]). *)

type exploration = {
  outcome : (Schedule.t, failure) result;
  metrics : metrics;
  domains_used : int;
  steals : int;
  store : Class_store.stats;
}

type node = {
  mutable path_rev : Pnet.transition_id list;
  mutable cls : State_class.t;
      (* the parent's class until the node is visited, which fires the
         head of [path_rev] — a sibling the search never reaches is
         never fired — then advanced in place along the eager chain,
         before any child is published *)
  depth : int;
}

let explore ?(max_stored = 500_000) ?(subsume = true) ?(por = true) ?domains
    ?(cancel = no_cancel) model =
  let started = Unix.gettimeofday () in
  let domains =
    match domains with Some d -> d | None -> Work_steal.default_domains ()
  in
  let engine = if domains <= 1 then "classes" else "classes-parallel" in
  let net = model.Translate.net in
  let subsume = subsume && subsumption_applicable model in
  (* the stubborn-set context is immutable after creation — shared
     read-only across worker domains like the net itself *)
  let ind = Search.por_context { Search.default_options with por } model in
  let store = Class_store.create ~subsume () in
  let root = { path_rev = []; cls = State_class.initial net; depth = 0 } in
  let make_worker id (w : Work_steal.stats) =
    (* Chains of forced firings are where a losing portfolio member
       used to linger after its rivals finished, so worker 0 polls
       [cancel] down them too — only worker 0, like the driver, so the
       hook is never called from two domains at once. *)
    let cancel = if id = 0 then cancel else no_cancel in
    (* a lone firable transition leaves no choice: advance without
       publishing a node; [false] when cancelled mid-chain *)
    let rec eager_advance node =
      let c = node.cls in
      if is_final model c || is_dead model c then true
      else if cancel () then false
      else
        match State_class.firable net c with
        | [ tid ] ->
          w.eager <- w.eager + 1;
          node.path_rev <- tid :: node.path_rev;
          node.cls <- State_class.fire net c tid;
          eager_advance node
        | [] | _ :: _ -> true
    in
    let visit node =
      (match node.path_rev with
      | tid :: _ -> node.cls <- State_class.fire net node.cls tid
      | [] -> ());
      if not (eager_advance node) then Work_steal.Cancelled
      else if is_final model node.cls then Work_steal.Goal
      else if is_dead model node.cls then Work_steal.Dead_end
      else
        match Class_store.visit store node.cls with
        | Class_store.Fresh -> Work_steal.Fresh
        | Class_store.Duplicate | Class_store.Subsumed -> Work_steal.Claim_lost
    in
    let children node =
      let c = node.cls in
      let firable, por_out = apply_por ~ind net c (State_class.firable net c) in
      Work_steal.count_por w ~por por_out;
      let child tid =
        { path_rev = tid :: node.path_rev; cls = c; depth = node.depth + 1 }
      in
      match order_candidates net c firable with
      | [] -> Work_steal.Leaf
      | first :: rest ->
        (* the first candidate is kept in hand; the rest are pushed in
           reverse, so the deque top holds the second candidate,
           preserving the sequential order for a lone worker *)
        Work_steal.Children
          (child first, List.fold_left (fun acc tid -> child tid :: acc) [] rest)
    in
    { Work_steal.visit; children }
  in
  let r =
    Work_steal.run ~domains ~engine
      ~span_args:[ ("subsume", Ezrt_obs.Trace.Str (string_of_bool subsume)) ]
      ~worker_span:"class-worker" ~cancel ~max_stored
      ~depth:(fun n -> n.depth) ~root make_worker
  in
  let s = r.Work_steal.stats in
  let store_stats = Class_store.stats store in
  let metrics =
    metrics_of_stats s ~subsumed:store_stats.Class_store.subsumed
      (Unix.gettimeofday () -. started)
  in
  let outcome =
    match r.Work_steal.outcome with
    | Work_steal.Found node -> (
      match extract net (List.rev node.path_rev) with
      | Some schedule -> Ok schedule
      | None -> Error Extraction_failed)
    | Work_steal.Stopped -> Error Budget_exhausted
    | Work_steal.Exhausted -> Error Infeasible
  in
  flush_class_metrics ~engine metrics store_stats;
  Work_steal.flush_metrics ~engine
    ~table_entries:store_stats.Class_store.entries
    ~table_contended:store_stats.Class_store.contended r;
  {
    outcome;
    metrics;
    domains_used = r.Work_steal.domains_used;
    steals = s.steals;
    store = store_stats;
  }

let find_schedule ?max_stored ?subsume ?por ?cancel model =
  let r = explore ?max_stored ?subsume ?por ~domains:1 ?cancel model in
  (r.outcome, r.metrics)
