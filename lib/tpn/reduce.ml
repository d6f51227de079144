type result = {
  net : Pnet.t;
  removed_transitions : string list;
  removed_places : string list;
  place_map : int array;
  transition_map : int array;
}

(* Token-flow liveness fixpoint.  A transition is (possibly) live when
   every input arc is satisfiable: the initial marking already meets
   the weight, or some live producer can feed the place (tokens then
   accumulate over repeated firings, so any finite weight is
   eventually met — a sound over-approximation).  Transitions never
   reaching liveness are dead in every reachable marking. *)
let live_transitions (net : Pnet.t) =
  let nt = Pnet.transition_count net in
  let producers = Pnet.producers net in
  let live = Array.make nt false in
  let sat (p, w) =
    net.Pnet.m0.(p) >= w || Array.exists (fun t -> live.(t)) producers.(p)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for t = 0 to nt - 1 do
      if (not live.(t)) && Array.for_all sat (Pnet.pre_arcs net t) then begin
        live.(t) <- true;
        changed := true
      end
    done
  done;
  live

let cleanup (net : Pnet.t) =
  let n_places = Pnet.place_count net in
  let n_trans = Pnet.transition_count net in
  let live = live_transitions net in
  (* a place is kept when it has initial tokens or touches a live
     transition *)
  let keep_place = Array.init n_places (fun p -> net.Pnet.m0.(p) > 0) in
  for t = 0 to n_trans - 1 do
    if live.(t) then begin
      Array.iter (fun (p, _) -> keep_place.(p) <- true) net.Pnet.pre.(t);
      Array.iter (fun (p, _) -> keep_place.(p) <- true) net.Pnet.post.(t)
    end
  done;
  let b = Pnet.Builder.create net.Pnet.net_name in
  let place_map = Array.make n_places (-1) in
  for p = 0 to n_places - 1 do
    if keep_place.(p) then
      place_map.(p) <-
        Pnet.Builder.add_place b ~tokens:net.Pnet.m0.(p) (Pnet.place_name net p)
  done;
  let transition_map = Array.make n_trans (-1) in
  for t = 0 to n_trans - 1 do
    if live.(t) then begin
      let tr = net.Pnet.transitions.(t) in
      let id =
        Pnet.Builder.add_transition b ~priority:tr.Pnet.priority
          ?code:tr.Pnet.code tr.Pnet.t_name tr.Pnet.interval
      in
      transition_map.(t) <- id;
      Array.iter
        (fun (p, weight) -> Pnet.Builder.arc_pt b ~weight place_map.(p) id)
        net.Pnet.pre.(t);
      Array.iter
        (fun (p, weight) -> Pnet.Builder.arc_tp b ~weight id place_map.(p))
        net.Pnet.post.(t)
    end
  done;
  let removed_transitions = ref [] in
  for t = n_trans - 1 downto 0 do
    if not live.(t) then
      removed_transitions := Pnet.transition_name net t :: !removed_transitions
  done;
  let removed_places = ref [] in
  for p = n_places - 1 downto 0 do
    if not keep_place.(p) then
      removed_places := Pnet.place_name net p :: !removed_places
  done;
  {
    net = Pnet.Builder.build b;
    removed_transitions = !removed_transitions;
    removed_places = !removed_places;
    place_map;
    transition_map;
  }

let is_identity result =
  result.removed_transitions = [] && result.removed_places = []
