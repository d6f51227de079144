(* Work-stealing parallel DFS over the discrete TLTS, an instance of
   [Work_steal].

   A node is an action list (the branching firing plus the eager
   immediate chain discovered at first expansion) and a parent
   pointer.  Every worker walks its own [State.Incremental] engine;
   moving from the last expanded node to the next popped one is an
   undo to their lowest common ancestor plus a replay of the actions
   on the downward path — O(1) amortized for own-deque pops, O(depth)
   only after a steal.

   Pruning is shared: a node claims its packed state in one
   [Packed_state.Sharded] table before expanding ([add] returning
   [false] means some worker already owns that state — skip).  Claiming
   at first visit rather than memoizing at exhaustion keeps each
   distinct state expanded at most once globally, which is what turns
   extra domains into speedup instead of duplicated work.  The
   feasibility verdict is deterministic; the specific schedule may
   differ from the sequential engines' because subtree completion
   order depends on the race — the differ and tests encode exactly
   that contract. *)

open Ezrt_tpn
module Translate = Ezrt_blocks.Translate

type t = {
  outcome : (Schedule.t, Search.failure) result;
  metrics : Search.metrics;
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
         first expansion (before any child is published) *)
  parent : node;  (* [origin] points at itself *)
  depth : int;  (* tree depth, origin = 0 *)
  mutable edepth : int;  (* engine depth at this node's state *)
}

let default_domains = Work_steal.default_domains

let find_schedule ?(options = Search.default_options) ?domains
    ?(cancel = Search.no_cancel) model =
  let started = Unix.gettimeofday () in
  let net = model.Translate.net in
  (* one immutable reduction context, shared read-only by all domains;
     each worker applies it per-node against its own engine *)
  let ind = Search.por_context options model in
  (* Modest initial sizing — stripes grow geometrically, so this only
     tunes when rehashing starts, and pre-sizing for [max_stored]
     would zero megabytes per search. *)
  let visited =
    Packed_state.Sharded.create
      ~expected:(max 1024 (min options.Search.max_stored 0x10000))
      ()
  in
  (* [origin] is every worker's initial position — engine at depth 0,
     never expanded, never mutated.  The search root proper is a child
     of it, so its eager extension (mutating [actions]/[edepth] at
     first expansion) never invalidates another worker's position
     invariant [cur.edepth = engine depth]. *)
  let rec origin = { actions = []; parent = origin; depth = 0; edepth = 0 } in
  let root = { actions = []; parent = origin; depth = 1; edepth = 0 } in
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
      if options.Search.partial_order && not (is_final () || is_dead ()) then
        match State.Incremental.fireable eng with
        | [ tid ] when Search.is_immediate net tid ->
          w.eager <- w.eager + 1;
          State.Incremental.fire eng tid 0;
          eager_chain ((tid, 0) :: acc)
        | [] | _ :: _ -> acc
      else acc
    in
    let eager_extend node =
      (match eager_chain [] with
      | [] -> ()
      | extra -> node.actions <- node.actions @ List.rev extra);
      node.edepth <- State.Incremental.depth eng
    in
    let visit node =
      move_to node;
      eager_extend node;
      if is_final () then Work_steal.Goal
      else if is_dead () then Work_steal.Dead_end
      else if Packed_state.Sharded.add visited (Packed_state.of_engine eng)
      then Work_steal.Fresh
      else Work_steal.Claim_lost
    in
    let children node =
      let fireable, por_outcome =
        Search.apply_por ~ind
          ~urgent:(fun () ->
            State.Incremental.min_dub eng = Time_interval.Finite 0)
          ~enabled:(State.Incremental.is_enabled eng)
          ~dub_zero:(fun t ->
            State.Incremental.dub eng t = Time_interval.Finite 0)
          ~tokens:(State.Incremental.tokens eng)
          (State.Incremental.fireable eng)
      in
      Work_steal.count_por w ~por:options.Search.por por_outcome;
      let ordered =
        Priority.order_view options.Search.policy model view fireable
      in
      (* Children are built in one pass with no intermediate lists —
         the node machinery competes with the sequential engine on
         allocation, and minor collections are what the race is decided
         by.  The engine is not mutated while publishing, so firing
         domains can be read inline.  The first candidate is kept in
         hand; the rest accumulate in reverse, which is exactly push
         order: the deque top ends up holding the second candidate,
         preserving sequential order for a lone worker. *)
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
            (Search.firing_times options model tid domain))
        ordered;
      match !first with
      | None -> Work_steal.Leaf
      | Some f -> Work_steal.Children (f, !rev_rest)
    in
    { Work_steal.visit; children }
  in
  let r =
    Work_steal.run ?domains ~engine:"discrete-parallel"
      ~span_args:
        [ ("policy", Ezrt_obs.Trace.Str (Priority.to_string options.Search.policy)) ]
      ~worker_span:"par-worker" ~cancel ~max_stored:options.Search.max_stored
      ~depth:(fun n -> n.depth) ~root make_worker
  in
  let s = r.Work_steal.stats in
  let metrics =
    {
      Search.stored = s.stored;
      visited = s.stored + s.eager;
      eager = s.eager;
      backtracks = s.backtracks;
      max_depth = s.max_depth;
      elapsed_s = Unix.gettimeofday () -. started;
      por_reduced = s.por_reduced;
      por_fallback = s.por_fallback;
      por_skipped = s.por_skipped;
    }
  in
  let table = Packed_state.Sharded.stats visited in
  let outcome =
    match r.Work_steal.outcome with
    | Work_steal.Found node ->
      let rec path n acc =
        if n == origin then acc else path n.parent (n.actions @ acc)
      in
      Ok (Schedule.of_actions (path node []))
    | Work_steal.Stopped -> Error Search.Budget_exhausted
    | Work_steal.Exhausted -> Error Search.Infeasible
  in
  (* common search counters (incl. the POR triple) go through the same
     flush as the sequential engines, so every engine label carries an
     identical series vocabulary *)
  Search.flush_metrics ~engine:"discrete-parallel" metrics;
  Work_steal.flush_metrics ~engine:"discrete-parallel"
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
