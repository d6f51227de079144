(* Packed TLTS states for the search's visited table.

   A boxed [State.t] costs two int arrays plus a record — roughly
   8 bytes per cell plus three headers — and hashing it walks boxed
   arrays on every lookup.  Here a state is serialized once into a
   [Bytes.t] of fixed-width little-endian cells (the narrowest of
   16/32/64 bits that fits every cell, chosen per state so equal states
   encode identically) with the full-width Zobrist hash memoized next
   to it.  A 500k-entry visited table shrinks by ~4x and lookups
   reduce to a stored-int compare plus [Bytes.equal].

   [of_engine] takes the incremental engine's maintained Zobrist word
   directly, so keying a search node costs only the serialization scan
   — no rehash of the marking at all. *)

type t = {
  data : bytes;
  hash : int;
}

let width_tag_2 = '\002'
let width_tag_4 = '\004'
let width_tag_8 = '\008'

let serialize ~cells ~cell =
  let lo = ref 0 and hi = ref 0 in
  for i = 0 to cells - 1 do
    let v = cell i in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  if !lo >= -0x8000 && !hi <= 0x7fff then begin
    let data = Bytes.create (1 + (2 * cells)) in
    Bytes.unsafe_set data 0 width_tag_2;
    for i = 0 to cells - 1 do
      Bytes.set_int16_le data (1 + (2 * i)) (cell i)
    done;
    data
  end
  else if !lo >= -0x40000000 && !hi <= 0x3fffffff then begin
    let data = Bytes.create (1 + (4 * cells)) in
    Bytes.unsafe_set data 0 width_tag_4;
    for i = 0 to cells - 1 do
      Bytes.set_int32_le data (1 + (4 * i)) (Int32.of_int (cell i))
    done;
    data
  end
  else begin
    let data = Bytes.create (1 + (8 * cells)) in
    Bytes.unsafe_set data 0 width_tag_8;
    for i = 0 to cells - 1 do
      Bytes.set_int64_le data (1 + (8 * i)) (Int64.of_int (cell i))
    done;
    data
  end

let pack ~n_places ~n_transitions ~tokens ~clock =
  let cells = n_places + n_transitions in
  let cell i = if i < n_places then tokens i else clock (i - n_places) in
  (* same fold as [State.Zobrist.of_cells], driven by [cell] so
     degenerate shapes (zero cells) never index the accessors *)
  let hash = ref 0 in
  for i = 0 to cells - 1 do
    let v = cell i in
    if i < n_places then hash := !hash lxor State.Zobrist.place i v
    else if v >= 0 then hash := !hash lxor State.Zobrist.clock (i - n_places) v
  done;
  { data = serialize ~cells ~cell; hash = !hash }

let of_state (s : State.t) =
  pack
    ~n_places:(Array.length s.State.marking)
    ~n_transitions:(Array.length s.State.clocks)
    ~tokens:(fun p -> s.State.marking.(p))
    ~clock:(fun t -> s.State.clocks.(t))

let of_engine e =
  let net = State.Incremental.net e in
  let n_places = Pnet.place_count net in
  let cells = n_places + Pnet.transition_count net in
  let cell i =
    if i < n_places then State.Incremental.tokens e i
    else State.Incremental.clock e (i - n_places)
  in
  { data = serialize ~cells ~cell; hash = State.Incremental.zhash e }

let unpack p =
  let data = p.data in
  let width = Char.code (Bytes.get data 0) in
  let cells = (Bytes.length data - 1) / width in
  Array.init cells (fun i ->
      match width with
      | 2 -> Bytes.get_int16_le data (1 + (2 * i))
      | 4 -> Int32.to_int (Bytes.get_int32_le data (1 + (4 * i)))
      | 8 -> Int64.to_int (Bytes.get_int64_le data (1 + (8 * i)))
      | w -> invalid_arg (Printf.sprintf "Packed_state.unpack: width tag %d" w))

let equal a b = a.hash = b.hash && Bytes.equal a.data b.data
let hash p = p.hash
let byte_size p = Bytes.length p.data

(* ------------------------------------------------------------------ *)
(* Lock-striped concurrent set of packed states.

   The parallel search's shared visited table: 2^k stripes, each an
   independently-locked open-addressed table (linear probing over
   parallel [bytes]/[hash] arrays, grown at ~3/4 load).  A key's stripe
   is its low hash bits, the probe start its next bits, so all
   operations on one key serialize through one mutex and the structure
   is trivially linearizable.  Stripe count is fixed at creation —
   contention drops as 1/stripes for uniform keys, and the Zobrist
   hashes are uniform by construction. *)

module Sharded = struct
  type stripe = {
    lock : Mutex.t;
    mutable keys : bytes array;  (* Bytes.empty = free slot *)
    mutable hashes : int array;
    mutable count : int;
    mutable collisions : int;  (* probe steps past the home slot *)
  }

  type table = {
    stripes : stripe array;
    mask : int;  (* stripe count - 1 *)
    shift : int;  (* bits consumed by stripe selection *)
    total : int Atomic.t;
    contended : int Atomic.t;  (* Mutex.try_lock misses *)
  }

  type stats = {
    stripes : int;
    entries : int;
    capacity : int;
    load : float;
    collisions : int;
    contended : int;
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let create ?(stripes = 64) () =
    let n_stripes = next_pow2 (max 1 stripes) in
    let shift =
      let rec bits p acc = if p <= 1 then acc else bits (p / 2) (acc + 1) in
      bits n_stripes 0
    in
    let per_stripe = 16 in
    {
      stripes =
        Array.init n_stripes (fun _ ->
            {
              lock = Mutex.create ();
              keys = Array.make per_stripe Bytes.empty;
              hashes = Array.make per_stripe 0;
              count = 0;
              collisions = 0;
            });
      mask = n_stripes - 1;
      shift;
      total = Atomic.make 0;
      contended = Atomic.make 0;
    }

  (* Caller holds the stripe lock.  Returns the slot of [key], or the
     first free slot if absent.  The probe start uses the hash bits
     above the stripe-selection bits so slots spread within a stripe;
     occupancy checks compare the stored full hash first. *)
  let probe st ~hash ~shift ~slot_mask key =
    let i = ref ((hash lsr shift) land slot_mask) in
    let steps = ref 0 in
    let found = ref (-1) in
    while !found < 0 do
      let k = st.keys.(!i) in
      if Bytes.length k = 0 then found := !i
      else if st.hashes.(!i) = hash && Bytes.equal k key then found := !i
      else begin
        incr steps;
        i := (!i + 1) land slot_mask
      end
    done;
    st.collisions <- st.collisions + !steps;
    !found

  let grow st ~shift =
    let old_keys = st.keys and old_hashes = st.hashes in
    let cap = 2 * Array.length old_keys in
    st.keys <- Array.make cap Bytes.empty;
    st.hashes <- Array.make cap 0;
    let slot_mask = cap - 1 in
    Array.iteri
      (fun i k ->
        if Bytes.length k > 0 then begin
          let h = old_hashes.(i) in
          let j = probe st ~hash:h ~shift ~slot_mask k in
          st.keys.(j) <- k;
          st.hashes.(j) <- h
        end)
      old_keys

  let lock_stripe (t : table) st =
    if not (Mutex.try_lock st.lock) then begin
      Atomic.incr t.contended;
      Mutex.lock st.lock
    end

  let add (t : table) key =
    let h = key.hash in
    let st = t.stripes.(h land t.mask) in
    lock_stripe t st;
    let slot_mask = Array.length st.keys - 1 in
    let i = probe st ~hash:h ~shift:t.shift ~slot_mask key.data in
    let added = Bytes.length st.keys.(i) = 0 in
    if added then begin
      st.keys.(i) <- key.data;
      st.hashes.(i) <- h;
      st.count <- st.count + 1;
      if 4 * st.count > 3 * Array.length st.keys then grow st ~shift:t.shift;
      Atomic.incr t.total
    end;
    Mutex.unlock st.lock;
    added

  let mem (t : table) key =
    let h = key.hash in
    let st = t.stripes.(h land t.mask) in
    lock_stripe t st;
    let slot_mask = Array.length st.keys - 1 in
    let i = probe st ~hash:h ~shift:t.shift ~slot_mask key.data in
    let present = Bytes.length st.keys.(i) > 0 in
    Mutex.unlock st.lock;
    present

  let length (t : table) = Atomic.get t.total

  let stats (t : table) =
    let capacity = ref 0 and collisions = ref 0 in
    Array.iter
      (fun st ->
        capacity := !capacity + Array.length st.keys;
        collisions := !collisions + st.collisions)
      t.stripes;
    let entries = Atomic.get t.total in
    {
      stripes = t.mask + 1;
      entries;
      capacity = !capacity;
      load =
        (if !capacity = 0 then 0.
         else float_of_int entries /. float_of_int !capacity);
      collisions = !collisions;
      contended = Atomic.get t.contended;
    }
end
