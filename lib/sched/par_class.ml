(* Work-stealing parallel DFS over the state-class graph, an instance
   of [Work_steal].

   Classes are immutable values ([State_class.fire] is pure), so there
   is no incremental engine to reposition — a node carries its class
   and the reversed transition path that produced it, and moving
   between nodes is free.  What is shared is the Class_store: a node
   claims its canonical class at first visit (Fresh) before expanding;
   Duplicate and Subsumed answers mean some worker already owns an
   equal or containing domain under the same marking, so the subtree is
   pruned globally on the same soundness argument as the sequential
   engine (see Class_search and DESIGN.md). *)

open Ezrt_tpn
module Translate = Ezrt_blocks.Translate

type t = {
  outcome : (Schedule.t, Class_search.failure) result;
  metrics : Class_search.metrics;
  domains_used : int;
  steals : int;
  store : Class_store.stats;
}

type node = {
  mutable path_rev : Pnet.transition_id list;
  mutable cls : State_class.t;
      (* both advanced in place along the eager chain at first visit,
         before any child is published *)
  depth : int;
}

let find_schedule ?(max_stored = 500_000) ?(subsume = true) ?(por = true)
    ?domains ?(cancel = fun () -> false) model =
  let started = Unix.gettimeofday () in
  let net = model.Translate.net in
  let subsume = subsume && Class_search.subsumption_applicable model in
  (* the stubborn-set context is immutable after creation — shared
     read-only across worker domains like the net itself *)
  let ind = Search.por_context { Search.default_options with por } model in
  let store = Class_store.create ~subsume () in
  let root = { path_rev = []; cls = State_class.initial net; depth = 0 } in
  let make_worker _id (w : Work_steal.stats) =
    (* forced singleton chains collapse without publishing a node,
       exactly as in the sequential engine *)
    let rec eager_advance node =
      let c = node.cls in
      if not (Class_search.is_final model c || Class_search.is_dead model c)
      then
        match State_class.firable net c with
        | [ tid ] ->
          w.eager <- w.eager + 1;
          node.path_rev <- tid :: node.path_rev;
          node.cls <- State_class.fire net c tid;
          eager_advance node
        | [] | _ :: _ -> ()
    in
    let visit node =
      eager_advance node;
      if Class_search.is_final model node.cls then Work_steal.Goal
      else if Class_search.is_dead model node.cls then Work_steal.Dead_end
      else
        match Class_store.visit store node.cls with
        | Class_store.Fresh -> Work_steal.Fresh
        | Class_store.Duplicate | Class_store.Subsumed -> Work_steal.Claim_lost
    in
    let children node =
      let c = node.cls in
      let firable, por_out =
        Class_search.apply_por ~ind net c (State_class.firable net c)
      in
      Work_steal.count_por w ~por por_out;
      let child tid =
        {
          path_rev = tid :: node.path_rev;
          cls = State_class.fire net c tid;
          depth = node.depth + 1;
        }
      in
      match Class_search.order_candidates net c firable with
      | [] -> Work_steal.Leaf
      | first :: rest ->
        (* the first candidate is kept in hand; the rest are pushed in
           reverse, so the deque top holds the second candidate,
           preserving sequential order for a lone worker *)
        let first = child first in
        Work_steal.Children
          (first, List.fold_left (fun acc tid -> child tid :: acc) [] rest)
    in
    { Work_steal.visit; children }
  in
  let r =
    Work_steal.run ?domains ~engine:"classes-parallel"
      ~span_args:[ ("subsume", Ezrt_obs.Trace.Str (string_of_bool subsume)) ]
      ~worker_span:"class-worker" ~cancel ~max_stored
      ~depth:(fun n -> n.depth) ~root make_worker
  in
  let s = r.Work_steal.stats in
  let store_stats = Class_store.stats store in
  let metrics =
    {
      Class_search.stored = s.stored;
      visited = s.stored + s.eager;
      eager = s.eager;
      backtracks = s.backtracks;
      subsumed = store_stats.Class_store.subsumed;
      max_depth = s.max_depth;
      elapsed_s = Unix.gettimeofday () -. started;
      por_reduced = s.por_reduced;
      por_fallback = s.por_fallback;
      por_skipped = s.por_skipped;
    }
  in
  let outcome =
    match r.Work_steal.outcome with
    | Work_steal.Found node -> (
      match Class_search.extract net (List.rev node.path_rev) with
      | Some schedule -> Ok schedule
      | None -> Error Class_search.Extraction_failed)
    | Work_steal.Stopped -> Error Class_search.Budget_exhausted
    | Work_steal.Exhausted -> Error Class_search.Infeasible
  in
  Class_search.flush_class_metrics ~engine:"classes-parallel" metrics
    store_stats;
  Work_steal.flush_metrics ~engine:"classes-parallel"
    ~table_entries:store_stats.Class_store.entries
    ~table_contended:store_stats.Class_store.contended r;
  {
    outcome;
    metrics;
    domains_used = r.Work_steal.domains_used;
    steals = s.steals;
    store = store_stats;
  }
