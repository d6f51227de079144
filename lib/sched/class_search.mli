(** Pre-runtime schedule synthesis over the dense-time state-class
    graph ({!Ezrt_tpn.State_class}) instead of the discrete TLTS.

    A class branches only on *which* transition fires next (the firing
    time is kept symbolic), so the search needs no firing-time
    heuristic and is complete for dense-time feasibility.  When a path
    to the final marking is found, a concrete integer schedule is
    extracted by replaying the transition sequence through the
    discrete semantics at the earliest legal times, then handed to the
    same certification pipeline as {!Search} results. *)

type metrics = {
  stored : int;  (** classes examined as search nodes *)
  visited : int;
  eager : int;  (** classes skipped by singleton-chain collapsing *)
  backtracks : int;
      (** dead ends plus stored classes with no candidate to fire *)
  subsumed : int;
      (** classes pruned by inclusion in an already-explored domain *)
  max_depth : int;
  elapsed_s : float;
  por_reduced : int;
      (** expanded classes where the stubborn set pruned ≥ 1 candidate *)
  por_fallback : int;
      (** urgent classes where no sound strict reduction was found *)
  por_skipped : int;
      (** expanded classes where the reduction gate did not apply *)
}

type failure =
  | Infeasible
  | Budget_exhausted
  | Extraction_failed
      (** the class path could not be realized at earliest integer
          times — not expected for translation-generated nets; surfaced
          rather than silently retried *)

val failure_to_string : failure -> string

val subsumption_applicable : Ezrt_blocks.Translate.t -> bool
(** Whether inclusion-based pruning preserves the feasibility verdict
    under this net's priorities: every better-than-default priority is
    on a [0,0] transition (marking-determined firability) and every
    worse-than-default priority marks a dead place.  Both engines gate
    [~subsume] on this, so hand-written nets that violate it fall back
    to exact visited-set pruning automatically. *)

val find_schedule :
  ?max_stored:int ->
  ?subsume:bool ->
  ?por:bool ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  (Schedule.t, failure) result * metrics
(** [max_stored] defaults to 500_000.  [subsume] (default [true])
    enables inclusion pruning when {!subsumption_applicable} holds.
    [por] (default [true]) enables the class-level stubborn-set
    reduction, gated through {!Search.por_context} exactly like the
    discrete engines (automatically inert on nets failing
    {!Ezrt_tpn.Indep.applicable}).  [cancel] is polled at every
    visited class, including forced eager-advance chains (default:
    never); when it returns [true] the search unwinds and reports
    {!Budget_exhausted} — used by the parallel portfolio to stop
    losing configurations.  This is [explore ~domains:1]. *)

type exploration = {
  outcome : (Schedule.t, failure) result;
  metrics : metrics;  (** aggregated over workers *)
  domains_used : int;
      (** workers that expanded, lost a claim or stole at least once *)
  steals : int;
  store : Ezrt_tpn.Class_store.stats;
}

val explore :
  ?max_stored:int ->
  ?subsume:bool ->
  ?por:bool ->
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  exploration
(** The class-graph instance of the {!Work_steal} driver: [domains]
    workers (default {!Work_steal.default_domains}) expand disjoint
    subtrees of the class graph, pruning through one shared
    {!Ezrt_tpn.Class_store}, so each canonical class is expanded at
    most once globally.  With one domain the run is {!find_schedule}
    and reports under the [classes] label; with more it reports under
    [classes-parallel], and only the verdict is deterministic.  Other
    arguments as for {!find_schedule}; [cancel] is polled by worker 0
    only. *)

val to_search_metrics : metrics -> Search.metrics
(** The class metrics without [subsumed], in the discrete record. *)
