(** Mutex-guarded work-stealing deque.

    A ring buffer with a coarse lock, the per-worker frontier of the
    {!Work_steal} driver:
    the owner pushes and pops at the top (plain LIFO, so a lone worker
    explores exactly the sequential order) while thieves take from the
    bottom — the shallowest nodes, whose subtrees are the largest and
    amortize the steal.  The lock is deliberate: pushes and pops are a
    few dozen ns against node expansions of microseconds, and the same
    mutex gives the publication happens-before for whatever node
    fields a thief reads. *)

type 'a t

val create : 'a -> 'a t
(** [create dummy] — [dummy] fills vacated slots so the buffer never
    retains popped values. *)

val push_top : 'a t -> 'a -> unit

val push_list : 'a t -> 'a list -> unit
(** One lock for a whole sibling batch; pushed in list order, so pass
    children reversed to leave the first candidate on top. *)

val pop_top : 'a t -> 'a option

val length : 'a t -> int
(** Racy read; only meaningful as a heuristic for the deque's owner. *)

val steal_half : ?limit:int -> 'a t -> 'a list
(** Up to half the items — capped at [limit] — from the bottom,
    shallowest first.  Long-lived peers split the load evenly;
    opportunistic workers cap the batch at what they will actually
    expand, so they never hold hostage work they are about to
    abandon. *)
