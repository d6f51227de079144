open Ezrt_tpn
module Translate = Ezrt_blocks.Translate
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let dead_net () =
  let b = Pnet.Builder.create "deadish" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let p1 = Pnet.Builder.add_place b "p1" in
  let starved = Pnet.Builder.add_place b "starved" in
  let orphan = Pnet.Builder.add_place b "orphan" in
  ignore orphan;
  let t_live = Pnet.Builder.add_transition b "t_live" Time_interval.zero in
  Pnet.Builder.arc_pt b p0 t_live;
  Pnet.Builder.arc_tp b t_live p1;
  (* t_dead needs [starved], which nothing ever marks *)
  let t_dead = Pnet.Builder.add_transition b "t_dead" Time_interval.zero in
  Pnet.Builder.arc_pt b starved t_dead;
  Pnet.Builder.arc_tp b t_dead p1;
  (* t_chained is dead transitively: its input comes only from t_dead *)
  let chained = Pnet.Builder.add_place b "chained" in
  Pnet.Builder.arc_tp b t_dead chained;
  let t_chained = Pnet.Builder.add_transition b "t_chained" Time_interval.zero in
  Pnet.Builder.arc_pt b chained t_chained;
  Pnet.Builder.arc_tp b t_chained p1;
  Pnet.Builder.build b

let test_liveness_fixpoint () =
  let net = dead_net () in
  let live = Reduce.live_transitions net in
  check_bool "t_live kept" true live.(Pnet.find_transition net "t_live");
  check_bool "t_dead removed" false live.(Pnet.find_transition net "t_dead");
  check_bool "t_chained removed (transitively)" false
    live.(Pnet.find_transition net "t_chained")

(* Weights count: [t_heavy] needs two tokens from a place that holds
   one and that nothing produces into, so it can never fire. *)
let weighted_net () =
  let b = Pnet.Builder.create "weighted" in
  let p = Pnet.Builder.add_place b ~tokens:1 "p" in
  let out = Pnet.Builder.add_place b "out" in
  let t_heavy = Pnet.Builder.add_transition b "t_heavy" Time_interval.zero in
  Pnet.Builder.arc_pt b ~weight:2 p t_heavy;
  Pnet.Builder.arc_tp b t_heavy out;
  let t_light = Pnet.Builder.add_transition b "t_light" Time_interval.zero in
  Pnet.Builder.arc_pt b p t_light;
  Pnet.Builder.arc_tp b t_light out;
  Pnet.Builder.build b

let test_liveness_respects_weights () =
  let net = weighted_net () in
  let live = Reduce.live_transitions net in
  check_bool "t_heavy dead" false live.(Pnet.find_transition net "t_heavy");
  check_bool "t_light kept" true live.(Pnet.find_transition net "t_light");
  check_bool "cleanup drops t_heavy" true
    ((Reduce.cleanup net).Reduce.removed_transitions = [ "t_heavy" ])

let test_cleanup_removes_dead_nodes () =
  let result = Reduce.cleanup (dead_net ()) in
  check_bool "not identity" false (Reduce.is_identity result);
  check_bool "dead transitions listed" true
    (List.sort compare result.Reduce.removed_transitions
     = [ "t_chained"; "t_dead" ]);
  check_bool "starved places removed" true
    (List.mem "starved" result.Reduce.removed_places);
  check_bool "orphan removed" true
    (List.mem "orphan" result.Reduce.removed_places);
  let net = result.Reduce.net in
  check_int "two places left" 2 (Pnet.place_count net);
  check_int "one transition left" 1 (Pnet.transition_count net);
  (* behaviour preserved on the live part *)
  let stats = Tlts.explore net in
  check_int "live behaviour intact" 2 stats.Tlts.states

let test_maps_consistent () =
  let original = dead_net () in
  let result = Reduce.cleanup original in
  Array.iteri
    (fun old_p new_p ->
      if new_p >= 0 then
        check_string "place names preserved"
          (Pnet.place_name original old_p)
          (Pnet.place_name result.Reduce.net new_p))
    result.Reduce.place_map;
  Array.iteri
    (fun old_t new_t ->
      if new_t >= 0 then
        check_string "transition names preserved"
          (Pnet.transition_name original old_t)
          (Pnet.transition_name result.Reduce.net new_t))
    result.Reduce.transition_map

let test_translated_nets_are_clean () =
  List.iter
    (fun (name, spec) ->
      if name <> "mine-pump" then begin
        let net = (Translate.translate spec).Translate.net in
        let result = Reduce.cleanup net in
        check_bool (name ^ " already clean") true (Reduce.is_identity result);
        check_int (name ^ " same size") (Pnet.place_count net)
          (Pnet.place_count result.Reduce.net)
      end)
    Case_studies.all

let test_small_nets_identity () =
  check_bool "sequential identity" true
    (Reduce.is_identity (Reduce.cleanup (sequential_net ())));
  check_bool "conflict identity" true
    (Reduce.is_identity (Reduce.cleanup (conflict_net ())))

let suite =
  [
    case "liveness fixpoint" test_liveness_fixpoint;
    case "liveness respects arc weights" test_liveness_respects_weights;
    case "cleanup removes dead nodes" test_cleanup_removes_dead_nodes;
    case "id maps preserve names" test_maps_consistent;
    case "translated nets are already clean" test_translated_nets_are_clean;
    case "small nets untouched" test_small_nets_identity;
  ]
