(** Pre-runtime schedule synthesis (paper §4.4.1): a depth-first search
    over the TLTS of the translated net, stopping at the desired final
    marking [MF], with partial-order reduction of deterministic
    immediate firings, never expanding a state twice.

    Two interchangeable engines implement the same search:

    - the {e incremental} engine (default) is the discrete instance of
      the {!Work_steal} driver ({!explore}) on one domain: it walks a
      mutable {!Ezrt_tpn.State.Incremental} state, firing in O(arcs)
      instead of O(|T|·|F|), and claims each state at first visit in a
      table of packed byte strings ({!Ezrt_tpn.Packed_state});
    - the {e copying} engine is the original immutable-state recursive
      DFS, kept as the semantic oracle and benchmark baseline.

    Both explore candidates in exactly the same order and produce
    action-for-action identical schedules and identical metrics. *)

type options = {
  policy : Priority.policy;  (** branch ordering; default [Edf] *)
  partial_order : bool;
      (** fire a lone immediate candidate eagerly, without creating a
          stored search node — the Lilius-style pruning the paper
          adopts; default true *)
  latest_release : bool;
      (** besides the earliest firing time, also branch on the latest
          time of release windows, allowing inserted idle time;
          default false (the paper's search is work-conserving) *)
  max_stored : int;  (** stored-state budget; default 500_000 *)
  incremental : bool;
      (** use the incremental engine (the one-domain driver); default
          true.  [false] selects the copy-based reference engine. *)
  por : bool;
      (** stubborn-set partial-order reduction ({!Ezrt_tpn.Indep}):
          at urgent states, expand only a dependency-closed subset of
          the fireable set; default true.  Automatically inert under
          [latest_release] or on nets that fail
          {!Ezrt_tpn.Indep.applicable}; [--no-por] on the CLI. *)
}

val default_options : options

type failure =
  | Infeasible  (** the search space is exhausted: no feasible schedule *)
  | Budget_exhausted

val failure_to_string : failure -> string

val no_cancel : unit -> bool

val is_immediate : Ezrt_tpn.Pnet.t -> Ezrt_tpn.Pnet.transition_id -> bool
(** A \[0,0\] transition — the ones the partial-order reduction may
    fire eagerly when they are the lone candidate. *)

val firing_times :
  options ->
  Ezrt_blocks.Translate.t ->
  Ezrt_tpn.Pnet.transition_id ->
  int * Ezrt_tpn.Time_interval.bound ->
  int list
(** Firing times to branch on within a firing domain: the earliest
    always, plus the latest of release windows under
    [latest_release].  Shared by both engines so they explore the
    same choice space. *)

type metrics = {
  stored : int;
      (** search nodes examined — the paper's "states searched" *)
  visited : int;  (** stored plus eagerly fired intermediate states *)
  eager : int;  (** states skipped by the partial-order reduction *)
  backtracks : int;
      (** dead ends plus stored nodes with no candidate to fire *)
  max_depth : int;  (** deepest node reached, the root being depth 0 *)
  elapsed_s : float;
  por_reduced : int;
      (** expanded states where the stubborn set pruned ≥ 1 candidate *)
  por_fallback : int;
      (** urgent states where no sound strict reduction was found *)
  por_skipped : int;
      (** expanded states where the reduction gate did not apply
          (non-urgent state, inapplicable net, or [latest_release]) *)
}

val flush_metrics : engine:string -> metrics -> unit
(** Bulk-update the {!Ezrt_obs.Metrics} registry with one search's
    totals under the given engine label — the
    [ezrt_search_{stored_states,visited_states,eager_fires,backtracks}_total]
    and [ezrt_por_{reduced,fallback,skipped}_total] counters, the
    [ezrt_search_duration] timer and the end-of-span GC gauges.  Every
    engine (sequential, parallel, classes) flushes through this so the
    series mean the same thing under every label. *)

val por_context : options -> Ezrt_blocks.Translate.t -> Ezrt_tpn.Indep.t option
(** The per-search stubborn-set context: [Some] exactly when
    [options.por] is on, [latest_release] is off, and the net passes
    {!Ezrt_tpn.Indep.applicable}.  Shared by every engine so the
    reduction is gated identically everywhere. *)

val apply_por :
  ind:Ezrt_tpn.Indep.t option ->
  urgent:(unit -> bool) ->
  enabled:(Ezrt_tpn.Pnet.transition_id -> bool) ->
  dub_zero:(Ezrt_tpn.Pnet.transition_id -> bool) ->
  tokens:(Ezrt_tpn.Pnet.place_id -> int) ->
  Ezrt_tpn.Pnet.transition_id list ->
  Ezrt_tpn.Pnet.transition_id list * Work_steal.por_outcome
(** One expansion through the reduction gate: probes are only called
    when [ind] is [Some] and [urgent ()] holds ([dub_zero] only on
    enabled transitions).  Returns the (possibly reduced) expansion
    set and what happened, so every engine counts
    [ezrt_por_{reduced,fallback,skipped}_total] identically. *)

val find_schedule :
  ?options:options ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  (Schedule.t, failure) result * metrics
(** On success the returned schedule has been found by the DFS; callers
    can certify it independently with {!Schedule.replay} and
    {!Validator.check}.

    [cancel] is polled at every search node (default: never).  When it
    returns [true] the search unwinds and reports
    {!Budget_exhausted} — the hook the parallel portfolio uses to stop
    losing configurations.  The incremental engine is
    [explore ~domains:1]. *)

type exploration = {
  outcome : (Schedule.t, failure) result;
  metrics : metrics;
      (** aggregated over workers; [stored] counts successful claims *)
  domains_used : int;
      (** workers that expanded, skipped, or stole at least once *)
  steals : int;
  shared_hits : int;
      (** expansions skipped because the state was already claimed in
          the shared table — re-convergent paths of the TLTS plus
          states claimed first by another domain *)
  replayed_fires : int;
      (** firings replayed while repositioning after pops and steals *)
  table : Ezrt_tpn.Packed_state.Sharded.stats;
}

val explore :
  ?options:options ->
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  exploration
(** The discrete instance of the {!Work_steal} driver: [domains]
    workers (default {!Work_steal.default_domains}) each walk their own
    {!Ezrt_tpn.State.Incremental} engine and claim states in one shared
    {!Ezrt_tpn.Packed_state.Sharded} table.  [options.incremental] is
    ignored.  With one domain the run is {!find_schedule}'s incremental
    engine and reports under the [discrete-incremental] label; with
    more it reports under [discrete-parallel], and only the verdict is
    deterministic — the specific schedule depends on the race.
    [cancel] is polled by worker 0 and stops every domain, reporting
    [Budget_exhausted]. *)
