(** Differential fuzzing campaigns: generate → cross-check → shrink.

    A campaign is fully determined by [(seed, count, profile)]: spec
    [i] is drawn from an independent stream derived from the seed, so
    runs are byte-for-byte reproducible and a single divergent index
    can be replayed alone with {!Spec_gen.spec_at}. *)

type divergent = {
  index : int;  (** which generated spec diverged *)
  spec : Ezrt_spec.Spec.t;  (** the original offender *)
  divergences : Differ.divergence list;
  shrunk : Ezrt_spec.Spec.t;
      (** minimal failing spec (equal to [spec] when shrinking is off) *)
}

type stats = {
  seed : int;
  count : int;
  generated : int;
  feasible : int;
  infeasible : int;
  unknown : int;  (** budget-limited: no claim either way *)
  divergent : divergent list;
  elapsed_s : float;
}

val run :
  ?profile:Spec_gen.profile ->
  ?max_stored:int ->
  ?class_domains:int ->
  ?engines:string list ->
  ?shrink:bool ->
  ?log:(int -> Ezrt_spec.Spec.t -> Differ.report -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  stats
(** Generate [count] specs from [seed] and {!Differ.check} each.
    [class_domains] is forwarded to {!Differ.check}: the classes
    row's worker domain count.
    [engines] restricts which built-in engines run and cross-check
    (see {!Differ.builtin_engines}) — e.g. [["parallel"; "reference"]]
    bisects parallel-only divergences quickly; shrinking uses the same
    restriction so the minimized spec still exhibits the restricted
    divergence.  Divergent specs are minimized with {!Shrink.minimize}
    unless [shrink:false].  [log] observes every checked spec (for
    progress reporting).  A spec is tallied feasible when any row
    returned a schedule, infeasible only when a complete row
    ("classes", "classes-no-por") or a witnessed "analysis" reject
    says so, and [unknown] otherwise. *)

val specs_per_s : stats -> float

val write_corpus : dir:string -> stats -> string list
(** Serialize each divergent case's shrunken spec to
    [dir/div-seed<seed>-i<index>.xml] (creating [dir] if needed) so
    the regression suite replays it forever.  Returns the paths. *)
