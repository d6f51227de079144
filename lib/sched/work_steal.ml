(* Work-stealing DFS driver, generic over the search node: the one
   depth-first search of both state spaces, run on one domain by the
   sequential entry points and on N by the parallel ones.

   N domains expand disjoint subtrees of one search tree from a shared
   frontier.  Each worker owns a [Deque] of unexpanded nodes: it pushes
   and pops at the top (plain LIFO, so a lone worker explores exactly
   the sequential engine's order) while idle workers steal half a
   victim's deque from the bottom — the shallowest nodes, whose
   subtrees are the largest and amortize the steal.

   The engine supplies, per worker, a [visit] (reposition onto the
   node, collapse forced chains, test goal and dead end, claim the
   state in a shared table) and a [children] constructor; the driver
   owns the rest: budget, pending-count termination, helper spawn,
   stealing, idle back-off, cancellation and the per-worker counters.

   Soundness: every pushed node is eventually expanded or the search
   stops early (goal / budget / cancel), and a state's first claimant
   explores the full choice space below it, so a reachable goal is
   always found and exhaustion (the pending counter hitting 0) really
   is infeasibility of the explored choice space. *)

type stats = {
  mutable stored : int;
  mutable eager : int;
  mutable backtracks : int;
  mutable max_depth : int;
  mutable steals : int;
  mutable shared_hits : int;
  mutable replayed : int;
  mutable por_reduced : int;
  mutable por_fallback : int;
  mutable por_skipped : int;
}

let zero_stats () =
  { stored = 0; eager = 0; backtracks = 0; max_depth = 0; steals = 0;
    shared_hits = 0; replayed = 0; por_reduced = 0; por_fallback = 0;
    por_skipped = 0 }

type por_outcome = Por_reduced | Por_fallback | Por_skipped

let count_por w ~por = function
  | Por_reduced -> w.por_reduced <- w.por_reduced + 1
  | Por_fallback -> w.por_fallback <- w.por_fallback + 1
  | Por_skipped -> if por then w.por_skipped <- w.por_skipped + 1

type visit = Goal | Dead_end | Claim_lost | Fresh | Cancelled

type 'node children = Leaf | Children of 'node * 'node list

type 'node worker = {
  visit : 'node -> visit;
  children : 'node -> 'node children;
}

type 'node outcome = Found of 'node | Exhausted | Stopped

type 'node result = {
  outcome : 'node outcome;
  stats : stats;
  domains_used : int;
}

let default_domains () = max 2 (Domain.recommended_domain_count () - 1)

let run ?domains ~engine ~span_args ~worker_span ~cancel ~max_stored ~depth
    ~root make_worker =
  let started = Unix.gettimeofday () in
  let n_workers =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  Ezrt_obs.Trace.begin_span ~cat:"search"
    ~args:
      ((("engine", Ezrt_obs.Trace.Str engine) :: span_args)
      @ [ ("domains", Ezrt_obs.Trace.Int n_workers) ])
    "search";
  let deques = Array.init n_workers (fun _ -> Deque.create root) in
  let all_stats = Array.init n_workers (fun _ -> zero_stats ()) in
  (* set by a goal, the budget or [cancel]; without a goal it means the
     search stopped short of a proof *)
  let stop = Atomic.make false in
  let pending = Atomic.make 1 (* the root *) in
  let stored_total = Atomic.make 0 in
  let result = Atomic.make None in
  Deque.push_top deques.(0) root;
  let helpers = ref [||] in
  let helpers_spawned = ref (n_workers <= 1) in
  let rec worker_body id =
    let w = all_stats.(id) in
    let deque = deques.(id) in
    Ezrt_obs.Trace.begin_span ~cat:"search"
      ~args:[ ("worker", Ezrt_obs.Trace.Int id) ]
      worker_span;
    let ops = make_worker id w in
    let tick () =
      if id = 0 then
        Ezrt_obs.Progress.tick (fun () ->
            let stored = Atomic.get stored_total in
            Printf.sprintf "search[%s x%d]: %d stored, %.0f states/s" engine
              n_workers stored
              (float_of_int stored
              /. max 1e-9 (Unix.gettimeofday () -. started)))
    in
    (* Expands [node]; returns the first child to expand next, kept "in
       hand" so the DFS spine never round-trips through the deque —
       only siblings are published for stealing. *)
    let expand node =
      let v = ops.visit node in
      let d = depth node in
      if d > w.max_depth then w.max_depth <- d;
      let next =
        match v with
        | Goal ->
          ignore (Atomic.compare_and_set result None (Some node));
          Atomic.set stop true;
          None
        | Dead_end ->
          w.backtracks <- w.backtracks + 1;
          None
        | Claim_lost ->
          w.shared_hits <- w.shared_hits + 1;
          None
        | Cancelled ->
          Atomic.set stop true;
          None
        | Fresh ->
          if Atomic.fetch_and_add stored_total 1 >= max_stored then begin
            Atomic.set stop true;
            None
          end
          else begin
            w.stored <- w.stored + 1;
            tick ();
            match ops.children node with
            | Leaf ->
              w.backtracks <- w.backtracks + 1;
              None
            | Children (first, rev_rest) ->
              ignore (Atomic.fetch_and_add pending (1 + List.length rev_rest));
              if rev_rest <> [] then Deque.push_list deque rev_rest;
              Some first
          end
      in
      Atomic.decr pending;
      next
    in
    (* The steal policy is a spawn gate.  Worker 0 spawns the helpers
       only once it has backtracked out of a subtree that held more
       stored states than its root's depth.  Until then the search is
       a dive that backtracks a few levels to dead ends, and a helper
       stealing the shallowest siblings would explore branches the
       dive never returns to: stored states double for no speedup.  A
       subtree larger than its depth also amortizes the steal, which
       replays the stolen node's path.  [entered] maps a depth to
       worker 0's stored count when it last expanded a node there, so
       a pop back to that depth measures the subtree just exhausted
       below it.  Only worker 0 runs before the spawn, and helpers
       start with [helpers_spawned] set. *)
    let entered = Hashtbl.create 64 in
    let worth_a_steal = ref false in
    let pop () =
      let popped = Deque.pop_top deque in
      (match popped with
      | Some n when not !helpers_spawned ->
        let d = depth n in
        let since =
          Option.value ~default:w.stored (Hashtbl.find_opt entered d)
        in
        if w.stored - since > d then worth_a_steal := true
      | Some _ | None -> ());
      popped
    in
    (* Workers beyond the hardware's recommended domain count are
       opportunistic: a long-lived extra domain slows the whole
       process on a saturated host (every stop-the-world minor
       collection synchronizes with it), so they steal only what they
       will expand, contribute that bounded burst of claims to the
       shared table, and exit — any leftovers are stolen back by the
       survivors.  At or below the recommended count workers run for
       the whole search. *)
    let opportunistic = id >= Domain.recommended_domain_count () in
    let burst = ref 8 in
    let rec try_steal k =
      k < n_workers
      &&
      let limit = if opportunistic then Some !burst else None in
      match Deque.steal_half ?limit deques.((id + k) mod n_workers) with
      | [] -> try_steal (k + 1)
      | items ->
        w.steals <- w.steals + 1;
        List.iter (Deque.push_top deque) items;
        true
    in
    let rec loop in_hand idle =
      if not (Atomic.get stop) then begin
        if id = 0 && cancel () then Atomic.set stop true
        else
          match (match in_hand with None -> pop () | Some _ -> in_hand) with
          | Some node ->
            if not !helpers_spawned then begin
              Hashtbl.replace entered (depth node) w.stored;
              if !worth_a_steal && Deque.length deque >= n_workers - 1 then
                spawn_helpers ()
            end;
            let next = expand node in
            if opportunistic && (decr burst; !burst <= 0) then
              (* hand the unfinished spine back for the survivors *)
              Option.iter (Deque.push_top deque) next
            else loop next 0
          | None ->
            if n_workers > 1 && try_steal 1 then loop None 0
            else if Atomic.get pending > 0 then begin
              (* back off instead of spinning: on few cores the worker
                 holding the work needs the cycles, and a sleeping domain
                 also cooperates with stop-the-world collections *)
              if idle = 0 then Domain.cpu_relax () else Unix.sleepf 0.0002;
              if not (opportunistic && idle >= 8) then loop None (idle + 1)
            end
      end
    in
    loop None 0;
    Ezrt_obs.Trace.end_span ~cat:"search"
      ~args:
        [
          ("worker", Ezrt_obs.Trace.Int id);
          ("stored", Ezrt_obs.Trace.Int w.stored);
          ("steals", Ezrt_obs.Trace.Int w.steals);
          ("shared_hits", Ezrt_obs.Trace.Int w.shared_hits);
        ]
      worker_span
  and spawn_helpers () =
    helpers_spawned := true;
    helpers :=
      Array.init (n_workers - 1) (fun i ->
          Domain.spawn (fun () -> worker_body (i + 1)))
  in
  worker_body 0;
  Array.iter Domain.join !helpers;
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 all_stats in
  let stats =
    {
      stored = sum (fun w -> w.stored);
      eager = sum (fun w -> w.eager);
      backtracks = sum (fun w -> w.backtracks);
      max_depth = Array.fold_left (fun acc w -> max acc w.max_depth) 0 all_stats;
      steals = sum (fun w -> w.steals);
      shared_hits = sum (fun w -> w.shared_hits);
      replayed = sum (fun w -> w.replayed);
      por_reduced = sum (fun w -> w.por_reduced);
      por_fallback = sum (fun w -> w.por_fallback);
      por_skipped = sum (fun w -> w.por_skipped);
    }
  in
  let domains_used =
    sum (fun w ->
        if w.stored + w.eager + w.backtracks + w.shared_hits + w.steals > 0
        then 1
        else 0)
  in
  let outcome =
    match Atomic.get result with
    | Some node -> Found node
    | None -> if Atomic.get stop then Stopped else Exhausted
  in
  Ezrt_obs.Trace.end_span ~cat:"search"
    ~args:
      [
        ("stored", Ezrt_obs.Trace.Int stats.stored);
        ("steals", Ezrt_obs.Trace.Int stats.steals);
        ("domains_used", Ezrt_obs.Trace.Int domains_used);
      ]
    "search";
  { outcome; stats; domains_used }

let flush_metrics ~engine ~table_entries ~table_contended r =
  let open Ezrt_obs in
  let labels = [ ("engine", engine) ] in
  let bump name help v = Metrics.add (Metrics.counter ~help ~labels name) v in
  bump "ezrt_par_steals_total" "Work-stealing operations" r.stats.steals;
  bump "ezrt_par_shared_hits_total"
    "Expansions skipped because the state was already claimed in the \
     shared table"
    r.stats.shared_hits;
  bump "ezrt_par_replayed_fires_total"
    "Firings replayed while repositioning after pops and steals"
    r.stats.replayed;
  bump "ezrt_par_table_contended_total"
    "Shared-table lock acquisitions that had to wait" table_contended;
  bump "ezrt_par_table_entries_total" "Shared visited-table entries"
    table_entries
