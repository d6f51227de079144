(** Packed TLTS states: a state serialized into a compact [Bytes.t]
    with its full-width Zobrist hash memoized, for the search's large
    visited table.  The encoding picks the narrowest cell width (16, 32
    or 64-bit little-endian) that fits every marking/clock cell of the
    state, so equal states always encode to equal bytes, and the hash
    agrees with {!State.hash} on the same logical state. *)

type t = private {
  data : bytes;
  hash : int;
}

val pack :
  n_places:int ->
  n_transitions:int ->
  tokens:(Pnet.place_id -> int) ->
  clock:(Pnet.transition_id -> int) ->
  t
(** Serialize from accessors ([clock] returning [-1] for disabled
    transitions, as in {!State.t}). *)

val of_state : State.t -> t

val of_engine : State.Incremental.engine -> t
(** Pack the engine's current state without materializing a
    {!State.t}.  Reuses the engine's incrementally maintained
    {!State.Incremental.zhash}, so no cell is hashed at all — keying a
    search node costs one serialization scan. *)

val unpack : t -> int array
(** Decode every cell back, in pack order: the [n_places] marking cells
    followed by the [n_transitions] clock cells.  Inverse of {!pack}
    for any cell width. *)

val equal : t -> t -> bool

val hash : t -> int
(** Memoized; equals [State.hash] of the corresponding state. *)

val byte_size : t -> int

(** Lock-striped concurrent set of packed states — the discrete
    search's visited table, shared by every worker domain.  2^k stripes selected by the low
    hash bits, each an independently-locked open-addressed table
    (linear probing, grown at ~3/4 load), so all operations on one key
    serialize through one mutex: the set is linearizable, and
    contention spreads 1/stripes for the uniform Zobrist hashes. *)
module Sharded : sig
  type table

  type stats = {
    stripes : int;
    entries : int;
    capacity : int;  (** total slots across stripes *)
    load : float;  (** entries / capacity *)
    collisions : int;  (** probe steps past home slots, cumulative *)
    contended : int;  (** [Mutex.try_lock] misses across all ops *)
  }

  val create : ?stripes:int -> unit -> table
  (** [stripes] (default 64) is rounded up to a power of two; each
      stripe starts at 16 slots and grows on demand. *)

  val add : table -> t -> bool
  (** [add t k] inserts [k]; [true] iff [k] was not already present —
      the atomic claim the parallel search races on. *)

  val mem : table -> t -> bool

  val length : table -> int
  (** Exact once all writers have quiesced; monotone under writers. *)

  val stats : table -> stats
end
