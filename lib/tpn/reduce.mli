(** Conservative structural cleanup of nets.

    Two reductions that preserve the timed behaviour exactly (they only
    remove nodes that can never participate in it), useful for nets
    imported from PNML or assembled by hand:

    - transitions that are structurally dead — some input arc can
      never be satisfied (the initial marking falls short of its weight
      and no live transition produces into the place, computed as a
      fixpoint);
    - places that end up isolated (no arcs and no initial tokens).

    The translation's own nets are already clean; tests assert that
    cleanup is the identity on them. *)

type result = {
  net : Pnet.t;
  removed_transitions : string list;
  removed_places : string list;
  place_map : int array;
      (** old place id -> new id, or -1 when removed *)
  transition_map : int array;
}

val live_transitions : Pnet.t -> bool array
(** Fixpoint liveness over-approximation: a transition is kept when
    every input arc is satisfiable — the initial marking meets its
    weight, or a live transition produces into the place.  Sound: a
    transition mapped to [false] is dead in every reachable marking.
    The one dead-transition analysis; [Lint.structurally_dead] reports
    it. *)

val cleanup : Pnet.t -> result

val is_identity : result -> bool
