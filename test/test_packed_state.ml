(* Packed_state properties: pack/unpack round-trips at every cell
   width, the memoized hash agrees with State.hash, and equal logical
   states always encode to equal bytes (the property the search's memo
   table relies on). *)

open Ezrt_tpn
open Test_util
module Rng = Ezrt_gen.Rng
module Spec_gen = Ezrt_gen.Spec_gen

let pack_cells ~n_places cells =
  Packed_state.pack ~n_places
    ~n_transitions:(Array.length cells - n_places)
    ~tokens:(fun p -> cells.(p))
    ~clock:(fun t -> cells.(n_places + t))

let arb_cells =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Rng.create seed in
        let n = 1 + Rng.int rng 12 in
        let n_places = Rng.int rng (n + 1) in
        (n_places, Array.init n (fun _ -> Spec_gen.cell rng)))
      QCheck.Gen.int
  in
  QCheck.make
    ~print:(fun (n_places, cells) ->
      Printf.sprintf "n_places=%d [%s]" n_places
        (String.concat "; "
           (Array.to_list (Array.map string_of_int cells))))
    gen

let prop_roundtrip =
  qcheck "pack/unpack round-trip across widths" arb_cells
    (fun (n_places, cells) ->
      Packed_state.unpack (pack_cells ~n_places cells) = cells)

let prop_byte_size =
  qcheck "byte size is 1 + width * cells" arb_cells
    (fun (n_places, cells) ->
      let n = Array.length cells in
      List.mem
        (Packed_state.byte_size (pack_cells ~n_places cells))
        [ 1 + (2 * n); 1 + (4 * n); 1 + (8 * n) ])

let test_width_selection () =
  let size cells = Packed_state.byte_size (pack_cells ~n_places:1 cells) in
  check_int "16-bit cells" (1 + (2 * 3)) (size [| -0x8000; 0; 0x7fff |]);
  check_int "32-bit cells" (1 + (4 * 3)) (size [| -0x8001; 0; 0x7fff |]);
  check_int "32-bit upper edge" (1 + (4 * 2)) (size [| 0x8000; 1 |]);
  check_int "64-bit cells" (1 + (8 * 2)) (size [| min_int; max_int |]);
  check_int "empty" 1 (size [||])

(* a deterministic pseudo-random walk through a net's reachable states *)
let walk net steps =
  let rec go state k acc =
    if k = 0 then acc
    else
      match State.fireable net state with
      | [] -> acc
      | ts ->
        let t = List.nth ts (k mod List.length ts) in
        let lo, _ = State.firing_domain net state t in
        let state = State.fire net state t lo in
        go state (k - 1) (state :: acc)
  in
  go (State.initial net) steps [ State.initial net ]

let nets () =
  [ sequential_net (); conflict_net (); ring_net 4 3; ring_net 6 11 ]

let test_hash_agrees_with_state () =
  List.iter
    (fun net ->
      List.iter
        (fun s ->
          check_int "hash agreement" (State.hash s)
            (Packed_state.hash (Packed_state.of_state s)))
        (walk net 12))
    (nets ())

let test_equal_states_equal_bytes () =
  List.iter
    (fun net ->
      List.iter
        (fun s ->
          let a = Packed_state.of_state s and b = Packed_state.of_state s in
          check_bool "packed equal" true (Packed_state.equal a b);
          check_bool "identical bytes" true (a.Packed_state.data = b.Packed_state.data))
        (walk net 8))
    (nets ())

let test_distinct_states_distinct_bytes () =
  let net = sequential_net () in
  match walk net 2 with
  | s1 :: s0 :: _ ->
    check_bool "different states, different bytes" false
      (Packed_state.equal (Packed_state.of_state s0) (Packed_state.of_state s1))
  | _ -> Alcotest.fail "walk should reach two states"

let test_of_engine_matches_of_state () =
  let net = sequential_net () in
  let eng = State.Incremental.create net in
  let check_point () =
    let from_engine = Packed_state.of_engine eng in
    let from_state = Packed_state.of_state (State.Incremental.snapshot eng) in
    check_bool "of_engine = of_state" true
      (Packed_state.equal from_engine from_state);
    check_int "hash too" (Packed_state.hash from_state)
      (Packed_state.hash from_engine)
  in
  check_point ();
  State.Incremental.fire eng 0 2;
  check_point ();
  State.Incremental.fire eng 1 0;
  check_point ()

(* --- sharded table ------------------------------------------------- *)

(* Key multisets with deliberate duplication, so concurrent claims
   actually race on the same keys. *)
let arb_key_multiset =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Rng.create seed in
        let n_places = 1 + Rng.int rng 4 in
        let n_cells = n_places + 1 + Rng.int rng 4 in
        let distinct = 1 + Rng.int rng 50 in
        let keys =
          Array.init distinct (fun _ ->
              pack_cells ~n_places
                (Array.init n_cells (fun _ -> Spec_gen.cell rng)))
        in
        (* every key is offered at least once, plus random duplicates
           so concurrent claims race on the same keys *)
        let dups = Rng.int rng (3 * distinct) in
        ( Array.to_list keys,
          Array.to_list keys
          @ List.init dups (fun _ -> keys.(Rng.int rng distinct)) ))
      QCheck.Gen.int
  in
  QCheck.make
    ~print:(fun (keys, ops) ->
      Printf.sprintf "%d distinct keys, %d ops" (List.length keys)
        (List.length ops))
    gen

(* Linearizable-equivalence with a sequential Hashtbl fed the same
   multiset: however 4 domains interleave their [add]s, every key is
   claimed exactly once globally, [mem] sees every inserted key, and
   [length] equals the distinct count — the same observations a
   sequential run produces. *)
let prop_sharded_linearizable =
  qcheck ~count:60 "sharded table: 4-domain adds linearize"
    arb_key_multiset
    (fun (keys, ops) ->
      let distinct =
        let h = Hashtbl.create 64 in
        List.iter (fun k -> Hashtbl.replace h k.Packed_state.data ()) keys;
        Hashtbl.length h
      in
      let table = Packed_state.Sharded.create ~stripes:8 () in
      let shares = Array.make 4 [] in
      List.iteri (fun i k -> shares.(i mod 4) <- k :: shares.(i mod 4)) ops;
      let claims =
        Array.map
          (fun share ->
            Domain.spawn (fun () ->
                List.fold_left
                  (fun n k ->
                    if Packed_state.Sharded.add table k then n + 1 else n)
                  0 share))
          shares
      in
      let claimed = Array.fold_left (fun n d -> n + Domain.join d) 0 claims in
      claimed = distinct
      && Packed_state.Sharded.length table = distinct
      && List.for_all (fun k -> Packed_state.Sharded.mem table k) keys)

let test_sharded_stats () =
  let table = Packed_state.Sharded.create ~stripes:4 () in
  let keys =
    List.init 100 (fun i -> pack_cells ~n_places:1 [| i; i * 7; i mod 3 |])
  in
  List.iter (fun k -> ignore (Packed_state.Sharded.add table k)) keys;
  List.iter (fun k -> check_bool "present" true (Packed_state.Sharded.mem table k)) keys;
  let absent = pack_cells ~n_places:1 [| -1; -2; -3 |] in
  check_bool "absent key" false (Packed_state.Sharded.mem table absent);
  let st = Packed_state.Sharded.stats table in
  check_int "entries" 100 st.Packed_state.Sharded.entries;
  check_int "stripes" 4 st.Packed_state.Sharded.stripes;
  check_bool "capacity covers entries" true
    (st.Packed_state.Sharded.capacity >= 100);
  check_bool "load in (0, 1)" true
    (st.Packed_state.Sharded.load > 0.0 && st.Packed_state.Sharded.load < 1.0);
  check_bool "uncontended when sequential" true
    (st.Packed_state.Sharded.contended = 0)

let suite =
  [
    prop_roundtrip;
    prop_byte_size;
    case "width selection edges" test_width_selection;
    case "hash agrees with State.hash" test_hash_agrees_with_state;
    case "equal states encode to equal bytes" test_equal_states_equal_bytes;
    case "distinct states differ" test_distinct_states_distinct_bytes;
    case "of_engine matches of_state" test_of_engine_matches_of_state;
    prop_sharded_linearizable;
    case "sharded table: stats sanity" test_sharded_stats;
  ]
