(* The work-stealing driver on synthetic trees with integer nodes and a
   claim table, independent of any net: every state is expanded at
   most once, exhaustion is reported exactly when no goal exists, a
   goal is found at any domain count (including one opportunistic
   worker past the recommended count), cancellation and the stored
   budget stop every worker, and the spawn gate keeps a dive on one
   domain. *)

module Work_steal = Ezrt_sched.Work_steal
open Test_util

type node = { id : int; depth : int }

type tree = {
  kids : node -> node list;  (** in sequential DFS order *)
  dead : node -> bool;
  goal : node -> bool;
  state : node -> int;  (** claim key: distinct nodes may share one *)
  states : int;
}

(* A bushy DAG: states are the cells [(depth, x)] of a cylinder [width]
   wide, and each cell has three children, [(depth + 1, x + i mod
   width)] for i = 0, 1, 2.  Paths re-converge on the same cell — the
   claim losses of a real state space — and a cell's future depends
   only on the cell, so claim pruning is sound.  The last row is dead
   unless it holds a goal. *)
let width = 64
let height = 48

let bushy ?(goal = fun _ -> false) () =
  let cell d x = { id = (d * width) + (x mod width); depth = d } in
  {
    kids = (fun n -> List.init 3 (fun i -> cell (n.depth + 1) (n.id + i)));
    dead = (fun n -> n.depth = height);
    goal;
    state = (fun n -> n.id);
    states = (height + 1) * width;
  }

(* A dive: every spine node has a dead-end leaf as its first child and
   the next spine node as its second; the goal ends the spine. *)
let dive =
  let spine d = { id = 2 * d; depth = d } in
  {
    kids =
      (fun n ->
        [ { id = (2 * n.depth) + 1; depth = n.depth + 1 }; spine (n.depth + 1) ]);
    dead = (fun n -> n.id land 1 = 1);
    goal = (fun n -> n.id = 2 * 300);
    state = (fun n -> n.id);
    states = 1000;
  }

let root = { id = 0; depth = 0 }

(* Runs the driver; returns the result, the number of [children] calls
   per state and the number of workers started.  [cancel_at] is an
   engine-side cancellation: the visit of a matching node reports
   [Cancelled]. *)
let search ?domains ?(cancel = fun () -> false) ?(cancel_at = fun _ -> false)
    ?(max_stored = max_int) tree =
  let claimed = Array.init tree.states (fun _ -> Atomic.make false) in
  let expansions = Array.init tree.states (fun _ -> Atomic.make 0) in
  let started = Atomic.make 0 in
  let make_worker _id _stats =
    Atomic.incr started;
    let visit n =
      if cancel_at n then Work_steal.Cancelled
      else if tree.goal n then Work_steal.Goal
      else if tree.dead n then Work_steal.Dead_end
      else if Atomic.compare_and_set claimed.(tree.state n) false true then
        Work_steal.Fresh
      else Work_steal.Claim_lost
    in
    let children n =
      Atomic.incr expansions.(tree.state n);
      match tree.kids n with
      | [] -> Work_steal.Leaf
      | first :: rest -> Work_steal.Children (first, List.rev rest)
    in
    { Work_steal.visit; children }
  in
  let r =
    Work_steal.run ?domains ~engine:"test" ~span_args:[]
      ~worker_span:"test-worker" ~cancel ~max_stored
      ~depth:(fun n -> n.depth) ~root make_worker
  in
  (r, Array.map Atomic.get expansions, Atomic.get started)

(* The sequential DFS the driver must reproduce on one domain: the goal
   it reaches first and the number of states it claims. *)
let sequential tree =
  let claimed = Array.make tree.states false in
  let stored = ref 0 in
  let rec dfs n =
    if tree.goal n then Some n
    else if tree.dead n || claimed.(tree.state n) then None
    else begin
      claimed.(tree.state n) <- true;
      incr stored;
      List.fold_left
        (fun found k -> match found with Some _ -> found | None -> dfs k)
        None (tree.kids n)
    end
  in
  let found = dfs root in
  (found, !stored)

let domain_counts = [ 1; 2; Domain.recommended_domain_count () + 1 ]

let test_exhaustion_expands_each_state_once () =
  let tree = bushy () in
  let _, seq_stored = sequential tree in
  List.iter
    (fun domains ->
      let r, expansions, _ = search ~domains tree in
      let label = Printf.sprintf "x%d" domains in
      check_bool (label ^ " exhausted") true (r.Work_steal.outcome = Work_steal.Exhausted);
      check_bool (label ^ " no state expanded twice") true
        (Array.for_all (fun c -> c <= 1) expansions);
      check_int (label ^ " every reachable state expanded") seq_stored
        (Array.fold_left ( + ) 0 expansions);
      check_int (label ^ " stored = expansions") seq_stored
        r.Work_steal.stats.Work_steal.stored)
    domain_counts

let test_goal_found_at_any_domain_count () =
  (* one goal cell in the last row, far from the first dive's column,
     so helpers have stolen work long before any worker reaches it *)
  let goal n = n.id = (height * width) + (width / 2) in
  let tree = bushy ~goal () in
  List.iter
    (fun domains ->
      let r, expansions, _ = search ~domains tree in
      let label = Printf.sprintf "x%d" domains in
      (match r.Work_steal.outcome with
      | Work_steal.Found n -> check_bool (label ^ " found a goal") true (goal n)
      | Work_steal.Exhausted | Work_steal.Stopped ->
        Alcotest.failf "%s: a goal exists but none was reported" label);
      check_bool (label ^ " no state expanded twice") true
        (Array.for_all (fun c -> c <= 1) expansions))
    domain_counts

let test_one_domain_is_sequential () =
  List.iter
    (fun (name, tree) ->
      let found, stored = sequential tree in
      let r, _, started = search ~domains:1 tree in
      check_int (name ^ " one worker") 1 started;
      check_int (name ^ " stored") stored r.Work_steal.stats.Work_steal.stored;
      match (found, r.Work_steal.outcome) with
      | Some a, Work_steal.Found b -> check_int (name ^ " same goal") a.id b.id
      | None, Work_steal.Exhausted -> ()
      | _ -> Alcotest.failf "%s: outcome differs from the sequential DFS" name)
    [
      ("bushy", bushy ());
      ("bushy with a goal", bushy ~goal:(fun n -> n.id = (height * width) + 40) ());
      ("dive", dive);
    ]

let test_cancel_and_budget_stop_every_worker () =
  List.iter
    (fun domains ->
      let label = Printf.sprintf "x%d" domains in
      let polls = Atomic.make 0 in
      let cancel () = Atomic.fetch_and_add polls 1 >= 50 in
      (* [run] joins every helper, so returning at all means they
         stopped *)
      let r, _, _ = search ~domains ~cancel (bushy ()) in
      check_bool (label ^ " cancelled is stopped") true
        (r.Work_steal.outcome = Work_steal.Stopped);
      let r, _, _ = search ~domains ~cancel_at:(fun n -> n.depth = 10) (bushy ()) in
      check_bool (label ^ " cancelled mid-visit is stopped") true
        (r.Work_steal.outcome = Work_steal.Stopped);
      let r, _, _ = search ~domains ~max_stored:40 (bushy ()) in
      check_bool (label ^ " budget is stopped") true
        (r.Work_steal.outcome = Work_steal.Stopped);
      check_bool (label ^ " stored within the budget") true
        (r.Work_steal.stats.Work_steal.stored <= 40))
    domain_counts

(* The spawn gate: a dive that only backtracks into dead-end leaves
   never starts a helper; a bushy search does, within its first
   subtrees. *)
let test_spawn_gate () =
  let r, _, started = search ~domains:2 dive in
  check_int "dive stays on one domain" 1 started;
  check_int "dive stores the sequential states" (snd (sequential dive))
    r.Work_steal.stats.Work_steal.stored;
  let _, _, started = search ~domains:2 (bushy ()) in
  check_int "bushy search starts the helper" 2 started

let suite =
  [
    case "exhaustion expands each state once" test_exhaustion_expands_each_state_once;
    case "goal found at 1, 2 and recommended+1 domains"
      test_goal_found_at_any_domain_count;
    case "one domain is the sequential DFS" test_one_domain_is_sequential;
    case "cancel and budget stop every worker"
      test_cancel_and_budget_stop_every_worker;
    case "spawn gate: dives stay sequential" test_spawn_gate;
  ]
