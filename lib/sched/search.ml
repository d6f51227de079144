open Ezrt_tpn
module Translate = Ezrt_blocks.Translate
module Meaning = Ezrt_blocks.Meaning

type options = {
  policy : Priority.policy;
  partial_order : bool;
  latest_release : bool;
  max_stored : int;
  incremental : bool;
  por : bool;
}

let default_options =
  { policy = Priority.Edf; partial_order = true; latest_release = false;
    max_stored = 500_000; incremental = true; por = true }

type failure =
  | Infeasible
  | Budget_exhausted

let failure_to_string = function
  | Infeasible -> "no feasible schedule exists for the explored choice space"
  | Budget_exhausted -> "stored-state budget exhausted"

type metrics = {
  stored : int;
  visited : int;
  eager : int;
  backtracks : int;
  max_depth : int;
  elapsed_s : float;
  por_reduced : int;
  por_fallback : int;
  por_skipped : int;
}

let flush_metrics ~engine (m : metrics) =
  let open Ezrt_obs in
  let labels = [ ("engine", engine) ] in
  let bump name help v =
    Metrics.add (Metrics.counter ~help ~labels name) v
  in
  bump "ezrt_search_stored_states_total" "Search nodes stored" m.stored;
  bump "ezrt_search_visited_states_total" "Search nodes visited" m.visited;
  bump "ezrt_search_eager_fires_total"
    "Forced immediate firings collapsed without storing a node" m.eager;
  bump "ezrt_search_backtracks_total"
    "Dead ends plus stored nodes with no candidate" m.backtracks;
  bump "ezrt_por_reduced_total"
    "Expansions pruned by the stubborn-set partial-order reduction"
    m.por_reduced;
  bump "ezrt_por_fallback_total"
    "Urgent states where the stubborn set gave no strict reduction"
    m.por_fallback;
  bump "ezrt_por_skipped_total"
    "Expanded states where the reduction's gate did not apply" m.por_skipped;
  Metrics.observe
    (Metrics.timer ~help:"Wall-clock time spent in search" ~labels
       "ezrt_search_duration")
    (max 0.0 m.elapsed_s);
  Metrics.record_gc_gauges ()

let metrics_of_stats (s : Work_steal.stats) elapsed_s =
  {
    stored = s.stored;
    visited = s.stored + s.eager;
    eager = s.eager;
    backtracks = s.backtracks;
    max_depth = s.max_depth;
    elapsed_s;
    por_reduced = s.por_reduced;
    por_fallback = s.por_fallback;
    por_skipped = s.por_skipped;
  }

(* Shared stubborn-set reduction plumbing: [por_context] decides once
   per search whether reduction is even on the table, [apply_por]
   applies the per-state urgency gate and reports the outcome for
   [Work_steal.count_por].  Every engine goes through these two so the
   `ezrt_por_*` counters mean the same thing everywhere. *)

let por_context options model =
  if options.por && not options.latest_release then
    let ind =
      Indep.create model.Translate.net
        ~final_place:model.Translate.final_place
        ~dead_places:model.Translate.dead_places
    in
    if Indep.applicable ind then Some ind else None
  else None

let apply_por ~ind ~urgent ~enabled ~dub_zero ~tokens fireable =
  match ind with
  | Some ind when urgent () -> (
    match Indep.reduce ind ~enabled ~dub_zero ~tokens fireable with
    | Indep.Reduced e -> (e, Work_steal.Por_reduced)
    | Indep.Fallback -> (fireable, Work_steal.Por_fallback))
  | Some _ | None -> (fireable, Work_steal.Por_skipped)

let is_immediate net tid =
  let itv = Pnet.interval net tid in
  Time_interval.is_point itv && Time_interval.eft itv = 0

(* Firing times to branch on within a domain: the earliest time always,
   plus the latest time of release windows when inserted idle time is
   allowed. *)
let firing_times options model tid (lo, hi) =
  if
    options.latest_release
    && Meaning.is_release model.Translate.meanings.(tid)
  then
    match hi with
    | Time_interval.Finite hi when hi > lo -> [ lo; hi ]
    | Time_interval.Finite _ | Time_interval.Infinity -> [ lo ]
  else [ lo ]


let no_cancel () = false

(* --- copy-based reference engine ------------------------------------ *)
(* The seed implementation: immutable states, a [State.Table] memo of
   exhausted states, a recursive DFS.  Kept as the semantic oracle for
   the differential tests and the benchmark baseline; it counts with
   the driver's vocabulary, so both report the same metrics. *)

exception Found of (Pnet.transition_id * int) list
(* carries the reversed action path *)

let find_schedule_copying ~options ~cancel model =
  let started = Unix.gettimeofday () in
  let net = model.Translate.net in
  let ind = por_context options model in
  let failed = State.Table.create 4096 in
  let budget_hit = ref false in
  let c = Work_steal.zero_stats () in
  let progress () =
    Ezrt_obs.Progress.tick (fun () ->
        Printf.sprintf "search[discrete-copying]: %d stored, depth %d"
          c.stored c.max_depth)
  in
  (* Collapse chains of forced immediate firings: when the fireable set
     is a singleton [0,0] transition, the semantics leaves no choice and
     no time passes, so the intermediate state need not become a search
     node. *)
  let rec eager_advance path_rev s =
    if
      options.partial_order
      && (not (Translate.is_final model s))
      && not (Translate.is_dead model s)
    then
      match State.fireable net s with
      | [ tid ] when is_immediate net tid ->
        c.eager <- c.eager + 1;
        eager_advance ((tid, 0) :: path_rev) (State.fire net s tid 0)
      | [] | _ :: _ -> (path_rev, s)
    else (path_rev, s)
  in
  let rec dfs depth path_rev s =
    if depth > c.max_depth then c.max_depth <- depth;
    if Translate.is_final model s then raise (Found path_rev);
    if Translate.is_dead model s then c.backtracks <- c.backtracks + 1
    else begin
      if cancel () then budget_hit := true;
      if not (!budget_hit || State.Table.mem failed s) then
        if c.stored >= options.max_stored then budget_hit := true
        else begin
          c.stored <- c.stored + 1;
          progress ();
          let fireable, por =
            apply_por ~ind
              ~urgent:(fun () -> State.min_dub net s = Time_interval.Finite 0)
              ~enabled:(State.is_enabled s)
              ~dub_zero:(fun t -> State.dub net s t = Time_interval.Finite 0)
              ~tokens:(State.tokens s) (State.fireable net s)
          in
          Work_steal.count_por c ~por:options.por por;
          let try_candidate tid =
            let domain = State.firing_domain net s tid in
            List.iter
              (fun q ->
                if not !budget_hit then begin
                  let path_rev, s' =
                    eager_advance ((tid, q) :: path_rev) (State.fire net s tid q)
                  in
                  dfs (depth + 1) path_rev s'
                end)
              (firing_times options model tid domain)
          in
          (match Priority.order options.policy model s fireable with
          | [] -> c.backtracks <- c.backtracks + 1
          | ordered -> List.iter try_candidate ordered);
          State.Table.replace failed s ()
        end
    end
  in
  let engine = "discrete-copying" in
  Ezrt_obs.Trace.begin_span ~cat:"search"
    ~args:
      [
        ("engine", Ezrt_obs.Trace.Str engine);
        ("policy", Ezrt_obs.Trace.Str (Priority.to_string options.policy));
      ]
    "search";
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Ezrt_obs.Trace.end_span ~cat:"search"
          ~args:[ ("stored", Ezrt_obs.Trace.Int c.stored) ]
          "search")
      (fun () ->
        match
          let path0, s0 = eager_advance [] (State.initial net) in
          if Translate.is_final model s0 then raise (Found path0);
          dfs 0 path0 s0
        with
        | () -> Error (if !budget_hit then Budget_exhausted else Infeasible)
        | exception Found path_rev ->
          Ok (Schedule.of_actions (List.rev path_rev)))
  in
  let metrics = metrics_of_stats c (Unix.gettimeofday () -. started) in
  flush_metrics ~engine metrics;
  (outcome, metrics)

(* --- the driver's discrete instance ---------------------------------- *)
(* A node is an action list (the branching firing plus the eager
   immediate chain discovered at first visit) and a parent pointer.
   Every worker walks its own [State.Incremental] engine; moving from
   the last expanded node to the next popped one is an undo to their
   lowest common ancestor plus a replay of the actions on the downward
   path — O(1) amortized for own-deque pops, O(depth) only after a
   steal.

   Pruning is shared: a node claims its packed state in one
   [Packed_state.Sharded] table before expanding ([add] returning
   [false] means some worker already owns that state — skip).  Claiming
   at first visit keeps each distinct state expanded at most once
   globally, which is what turns extra domains into speedup instead of
   duplicated work; on one domain it prunes exactly what the copying
   engine's memo of exhausted states prunes, since a state is only
   revisited after its subtree is exhausted. *)

type exploration = {
  outcome : (Schedule.t, failure) result;
  metrics : metrics;
  domains_used : int;
  steals : int;
  shared_hits : int;
  replayed_fires : int;
  table : Packed_state.Sharded.stats;
}

type node = {
  mutable actions : (Pnet.transition_id * int) list;
      (* firings from the parent's state to this node's state; the
         branch action, extended in place with the eager chain at
         first visit (before any child is published) *)
  parent : node;  (* [origin] points at itself *)
  depth : int;  (* tree depth: origin = -1, root = 0 *)
  mutable edepth : int;  (* engine depth at this node's state *)
}

let explore ?(options = default_options) ?domains ?(cancel = no_cancel) model
    =
  let started = Unix.gettimeofday () in
  let domains =
    match domains with Some d -> d | None -> Work_steal.default_domains ()
  in
  let engine =
    if domains <= 1 then "discrete-incremental" else "discrete-parallel"
  in
  let net = model.Translate.net in
  (* one immutable reduction context, shared read-only by all domains;
     each worker applies it per-node against its own engine *)
  let ind = por_context options model in
  (* starts at the minimum stripe size and grows geometrically: a
     search that stays small pays for a small table *)
  let visited = Packed_state.Sharded.create () in
  (* [origin] is every worker's initial position — engine at depth 0,
     never expanded, never mutated.  The search root proper is a child
     of it, so its eager extension (mutating [actions]/[edepth] at
     first visit) never invalidates another worker's position
     invariant [cur.edepth = engine depth]. *)
  let rec origin = { actions = []; parent = origin; depth = -1; edepth = 0 } in
  let root = { actions = []; parent = origin; depth = 0; edepth = 0 } in
  let make_worker _id (w : Work_steal.stats) =
    let eng = State.Incremental.create net in
    let view = Priority.view_of_engine eng in
    let is_final () =
      State.Incremental.tokens eng model.Translate.final_place >= 1
    in
    let is_dead () =
      List.exists
        (fun pdm -> State.Incremental.tokens eng pdm > 0)
        model.Translate.dead_places
    in
    (* current position: the last node whose state the engine is at *)
    let cur = ref origin in
    let rec lca a b chain =
      if a == b then (a, chain)
      else if a.depth > b.depth then lca a.parent b chain
      else if b.depth > a.depth then lca a b.parent (b :: chain)
      else lca a.parent b.parent (b :: chain)
    in
    let move_to target =
      (* fast path: the spine — target is a child of the current
         position, so it's a plain replay of its own actions *)
      if target.parent == !cur then
        List.iter
          (fun (tid, q) -> State.Incremental.fire eng tid q)
          target.actions
      else begin
        let anc, chain = lca !cur target [] in
        State.Incremental.undo_to eng anc.edepth;
        List.iter
          (fun n ->
            List.iter
              (fun (tid, q) ->
                State.Incremental.fire eng tid q;
                if n != target then w.replayed <- w.replayed + 1)
              n.actions)
          chain
      end;
      cur := target
    in
    (* Collapse chains of forced immediate firings, extending the
       node's action list in place; published to other workers only
       via the deque mutexes, after this returns. *)
    let rec eager_chain acc =
      if options.partial_order && not (is_final () || is_dead ()) then
        match State.Incremental.fireable eng with
        | [ tid ] when is_immediate net tid ->
          w.eager <- w.eager + 1;
          State.Incremental.fire eng tid 0;
          eager_chain ((tid, 0) :: acc)
        | [] | _ :: _ -> acc
      else acc
    in
    let visit node =
      move_to node;
      (match eager_chain [] with
      | [] -> ()
      | extra -> node.actions <- node.actions @ List.rev extra);
      node.edepth <- State.Incremental.depth eng;
      if is_final () then Work_steal.Goal
      else if is_dead () then Work_steal.Dead_end
      else if Packed_state.Sharded.add visited (Packed_state.of_engine eng)
      then Work_steal.Fresh
      else Work_steal.Claim_lost
    in
    let children node =
      let fireable, por =
        apply_por ~ind
          ~urgent:(fun () ->
            State.Incremental.min_dub eng = Time_interval.Finite 0)
          ~enabled:(State.Incremental.is_enabled eng)
          ~dub_zero:(fun t ->
            State.Incremental.dub eng t = Time_interval.Finite 0)
          ~tokens:(State.Incremental.tokens eng)
          (State.Incremental.fireable eng)
      in
      Work_steal.count_por w ~por:options.por por;
      let ordered = Priority.order_view options.policy model view fireable in
      (* Children are built in one pass with no intermediate lists.
         The engine is not mutated while publishing, so firing domains
         can be read inline.  The first candidate is kept in hand; the
         rest accumulate in reverse, which is exactly push order: the
         deque top ends up holding the second candidate, preserving
         sequential order for a lone worker. *)
      let first = ref None in
      let rev_rest = ref [] in
      List.iter
        (fun tid ->
          let domain = State.Incremental.firing_domain eng tid in
          List.iter
            (fun q ->
              let child =
                {
                  actions = [ (tid, q) ];
                  parent = node;
                  depth = node.depth + 1;
                  edepth = node.edepth + 1;
                }
              in
              match !first with
              | None -> first := Some child
              | Some _ -> rev_rest := child :: !rev_rest)
            (firing_times options model tid domain))
        ordered;
      match !first with
      | None -> Work_steal.Leaf
      | Some f -> Work_steal.Children (f, !rev_rest)
    in
    { Work_steal.visit; children }
  in
  let r =
    Work_steal.run ~domains ~engine
      ~span_args:
        [ ("policy", Ezrt_obs.Trace.Str (Priority.to_string options.policy)) ]
      ~worker_span:"par-worker" ~cancel ~max_stored:options.max_stored
      ~depth:(fun n -> n.depth) ~root make_worker
  in
  let s = r.Work_steal.stats in
  let metrics = metrics_of_stats s (Unix.gettimeofday () -. started) in
  let table = Packed_state.Sharded.stats visited in
  let outcome =
    match r.Work_steal.outcome with
    | Work_steal.Found node ->
      let rec path n acc =
        if n == origin then acc else path n.parent (n.actions @ acc)
      in
      Ok (Schedule.of_actions (path node []))
    | Work_steal.Stopped -> Error Budget_exhausted
    | Work_steal.Exhausted -> Error Infeasible
  in
  flush_metrics ~engine metrics;
  Work_steal.flush_metrics ~engine
    ~table_entries:table.Packed_state.Sharded.entries
    ~table_contended:table.Packed_state.Sharded.contended r;
  {
    outcome;
    metrics;
    domains_used = r.Work_steal.domains_used;
    steals = s.steals;
    shared_hits = s.shared_hits;
    replayed_fires = s.replayed;
    table;
  }

let find_schedule ?(options = default_options) ?(cancel = no_cancel) model =
  if options.incremental then
    let r = explore ~options ~domains:1 ~cancel model in
    (r.outcome, r.metrics)
  else find_schedule_copying ~options ~cancel model
