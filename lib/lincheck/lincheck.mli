(** Linearizability and strong-linearizability checking.

    [Make (S)] builds checkers for executions whose high-level operations
    follow specification [S]:

    - single-trace {e linearizability} (paper §2): is there a sequential
      execution of [S] containing every completed operation with its
      actual response, some of the pending ones, and respecting real-time
      order?
    - {e strong linearizability} (Golab–Higham–Woelfel, paper §2) of a
      whole program: does a {e prefix-closed} linearization function
      exist on the tree of all its executions?  Decided as a game:
      assign every explored node a linearization extending its parent's.

    Soundness: a refutation ([Not_strongly_linearizable]) holds for the
    real implementation — the finite witness tree embeds in the full
    execution tree.  A verification ([Strongly_linearizable]) is
    exhaustive for the given workload, node budget and depth bound. *)

exception Budget_exhausted

(** Which budget converted a run into the inconclusive {!Make.verdict}
    [Out_of_budget].  [Budget_nodes] is the historical node cap; its
    pretty and JSON renderings are pinned byte-for-byte.  [Budget_wall]
    and [Budget_heap] come from the optional [budget_ms] /
    [budget_heap_mb] arguments of {!Make.check_strong_stats};
    [Budget_interrupt] from its [interrupt] hook (signals, deadlines,
    supervisor cancellation).  [Budget_preempt] records that the
    conservative [preempt_bound] dropped enabled children somewhere: a
    fully successful game then only covers the restricted tree, so the
    verdict degrades to inconclusive (refutations found under the bound
    remain sound and are reported as usual). *)
type budget_reason = Budget_nodes | Budget_wall | Budget_heap | Budget_interrupt | Budget_preempt

val budget_reason_tag : budget_reason -> string
(** ["nodes"], ["wall_ms"], ["heap_mb"], ["interrupt"] or
    ["preempt_bound"] — the JSON tag. *)

val engine_fingerprint : string
(** Identity of the exploration engine's deterministic behaviour (bumped
    whenever exploration order, node accounting or the column split
    change).  Baked into checkpoints and into [slin serve]'s memoized
    verdict keys so stale state is never replayed across engines. *)

(** {1 Checkpoint / resume}

    The game at the root reduces to "every top-level subtree (column)
    must admit the empty linearization"; columns are solved independently
    and merged deterministically, so a run's completed columns are a
    sound resume point: a run restarted from a checkpoint skips them and
    provably reaches the same verdict, witness and counts as an
    uninterrupted run (the same invariance that makes the verdict
    independent of [jobs]).  Serialized as versioned [slin-checkpoint/v1]
    documents. *)

type col_checkpoint = {
  col_index : int;  (** position in the root's enabled list *)
  col_outcome : string;  (** ["ok"], ["failed"] or ["not-lin"] *)
  col_schedule : int list;  (** the [Not_linearizable] schedule, else [] *)
  col_nodes : int;
  col_hits : int;
  col_frontier : int;
  col_cand : int;
  col_killed : int;
  col_dead : int;
  col_vfail : int;
  col_wit : (int * int list) list;
      (** witness updates in temporal order: (depth, schedule) at each
          strictly-deeper dead end *)
  col_pruned : bool;
      (** the preempt bound dropped enabled children in this column
          (serialized only when true, so pre-existing checkpoints and
          their digests are unchanged; absent parses as false) *)
}

type checkpoint = {
  ck_config : string;
      (** caller-chosen configuration fingerprint (object, depth bound,
          engine); a resume under a different configuration must be
          refused by the caller *)
  ck_columns : col_checkpoint list;  (** completed columns, ascending *)
}

val checkpoint_schema : string
(** ["slin-checkpoint/v1"] *)

val checkpoint_fingerprint : checkpoint -> string
(** Deterministic digest of the checkpoint's configuration and column
    results — equal for an interrupted-then-resumed run and an
    uninterrupted one iff they walked the same columns to the same
    outcomes.  Embedded in the JSON and re-verified on parse, so a
    corrupted checkpoint is a structured error, not a wrong resume. *)

val checkpoint_to_json : checkpoint -> Obs_json.t

val checkpoint_of_json : Obs_json.t -> (checkpoint, string) result
(** Validates the schema tag, the engine fingerprint and the content
    digest; never raises. *)

type checkpointing = {
  cp_config : string;  (** configuration fingerprint to stamp and match *)
  cp_resume : checkpoint option;
      (** completed columns to skip; the caller must have verified
          [ck_config = cp_config] *)
  cp_emit : checkpoint -> unit;
      (** called with the cumulative checkpoint after every completed
          column (possibly from a worker domain; emissions are
          serialized per call but may arrive in any column order) *)
}

type stats = {
  nodes : int;  (** distinct tree nodes explored (= the verdict's count) *)
  cache_hits : int;  (** node lookups answered from the schedule cache *)
  max_frontier_depth : int;  (** deepest schedule prefix reached *)
  candidates_generated : int;  (** minimal linearizations enumerated *)
  candidates_killed : int;  (** candidates refuted at some child *)
  dead_ends : int;  (** nodes admitting no valid extension *)
  validate_failures : int;  (** inherited prefixes invalidated by new responses *)
  elapsed_ns : int;
}
(** Exploration statistics for one {!Make.check_strong_stats} run
    (spec-independent). *)

val nodes_per_sec : stats -> float

val pp_stats : Format.formatter -> stats -> unit
(** Multi-line, aligned block — the CLI's [--stats] output. *)

val stats_fields : stats -> (string * Obs_json.t) list
(** The stats as JSON fields (the documented [check_stats] schema). *)

module Make (S : Spec.S) : sig
  type entry = { op_id : int; eresp : S.resp }
  (** One linearized operation: the operation record id (dense, in
      invocation order) and the response it is committed to. *)

  type linearization = entry list

  val pp_linearization :
    (S.op, S.resp) History.op_record list -> Format.formatter -> linearization -> unit

  (** {1 Single-trace linearizability} *)

  val check_trace : (S.op, S.resp) Trace.t -> linearization option
  (** [check_trace t] is a linearization of [t] (completed operations
      plus any pending ones needed to justify them), or [None]. *)

  val is_linearizable : (S.op, S.resp) Trace.t -> bool

  (** {1 Strong linearizability} *)

  type verdict =
    | Strongly_linearizable of { nodes : int }
        (** A prefix-closed linearization function exists on the explored
            tree ([nodes] nodes). *)
    | Not_linearizable of { schedule : int list }
        (** Some execution is not even linearizable; [schedule] replays
            it via {!Sim.run_schedule}. *)
    | Not_strongly_linearizable of { witness : int list; nodes : int }
        (** Every execution is linearizable but no prefix-closed choice
            exists; [witness] is the deepest schedule prefix at which
            every candidate extension died. *)
    | Out_of_budget of { nodes : int; reason : budget_reason }
        (** Inconclusive: a budget tripped after [nodes] nodes.  The
            paired {!stats} still carry everything observed up to the
            stop (deepest frontier, candidate counts, elapsed time) —
            the "partial stats" of a budgeted run. *)

  val pp_verdict : Format.formatter -> verdict -> unit

  val check_strong :
    ?max_nodes:int -> ?max_depth:int -> (S.op, S.resp) Sim.program -> verdict
  (** [check_strong prog] solves the game on [prog]'s execution tree.
      [max_nodes] (default 200k) bounds distinct explored nodes;
      [max_depth] truncates the tree — needed when operations can spin
      (e.g. dequeue retrying on empty), and sound for refutation: a
      prefix-closed function on the full tree restricts to every
      truncated subtree. *)

  val check_strong_stats :
    ?max_nodes:int ->
    ?max_depth:int ->
    ?budget_ms:int ->
    ?budget_heap_mb:int ->
    ?on_progress:(nodes:int -> elapsed_ns:int -> unit) ->
    ?progress_every:int ->
    ?progress_every_ms:int ->
    ?tracer:Obs_trace.t ->
    ?profiler:Prof.t ->
    ?coverage:Coverage.t ->
    ?jobs:int ->
    ?checkpoint_stride:int ->
    ?interrupt:(unit -> bool) ->
    ?checkpointing:checkpointing ->
    ?reduce:bool ->
    ?reduce_check:bool ->
    ?preempt_bound:int ->
    ?crashes:int ->
    (S.op, S.resp) Sim.program ->
    verdict * stats
  (** Like {!check_strong}, additionally returning exploration {!stats}.
      Instrumentation is passive: the verdict and node count are
      identical to {!check_strong}'s (which is implemented as its
      [fst]).  [on_progress] fires every [progress_every] (default 10k)
      fresh nodes and additionally whenever [progress_every_ms] (default
      1000, [<= 0] disables) elapse without a beat — cache-hit streaks
      and long anchored replays expand no fresh node, and must not go
      silent; [tracer] receives [nodes] and [max_frontier_depth] counter
      samples at the same cadence plus one [check_strong] span, on a
      wall-clock-microsecond timeline.

      [profiler] records per-domain solve/merge/cross-check spans, node
      and cache-hit counts, depth histograms and candidate-kill
      attribution into a {!Prof.t} (see [Prof.to_json]).  Profiling is
      passive too: verdict, stats and outputs are byte-identical with or
      without it.

      [coverage] records per-domain exploration coverage into a
      {!Coverage.t}: each fresh node's world fingerprint, its depth and
      branching factor, and (on novel worlds) its trace's adjacent
      access pairs.  Passive like [profiler]: one trace scan per fresh
      node, nothing per cache hit, no feedback.  Note that with a
      wall-clock or heap budget set, the scan's cost can move where the
      budget trips; unbudgeted runs are byte-identical.  A parallel
      fallback to the sequential engine re-observes nodes (observation
      counts grow; unique fingerprints do not).

      [budget_ms] / [budget_heap_mb] bound wall-clock time and major-heap
      size; both are checked at every fresh node, so a tripped budget
      stops within one node expansion and yields [Out_of_budget] with the
      corresponding {!budget_reason} and the stats gathered so far.  When
      unset (the default) behaviour, output and node accounting are
      unchanged.

      [jobs] (default 1) solves the top-level subtrees (columns) on that
      many domains, capped at the hardware parallelism (override with
      the [SLIN_DOMAIN_CAP] environment variable): one engine per
      column, columns handed out by [Steal_pool.parallel_for].  Results
      are merged in column order, so the verdict, witness and node
      count are identical for every [jobs] value.  Heartbeat and tracer
      samples aggregate across workers: every engine bumps one shared
      atomic per fresh node, and worker 0 emits beats reading that
      total on its own node/time cadence.  An exception escaping any
      column (a checker bug, a raising [cp_emit]) abandons the other
      columns, joins every domain and is re-raised.
      [checkpoint_stride] (default 16, clamped to >= 1) sets the anchor
      interval of the incremental engine: every fresh node whose depth
      is a multiple of the stride is re-derived from a full replay and
      compared against the incrementally maintained state (stride 1 =
      paranoid mode, every node anchored).  Anchoring is a pure
      cross-check — results are identical for every stride.

      [interrupt] is polled at every fresh node (same cadence as the
      budgets); once it returns [true] the run degrades to
      [Out_of_budget] with reason [Budget_interrupt] and the partial
      stats gathered so far — this is how signal handlers, per-request
      deadlines and supervisor cancellation stop a check without losing
      its accounting.

      [checkpointing] routes the run through the column engine (even at
      [jobs = 1]), skips the columns recorded in [cp_resume], and calls
      [cp_emit] with the cumulative {!checkpoint} after each completed
      column.  An uninterrupted checkpointed run returns the same
      verdict and stats as a plain run; a resumed run returns the same
      verdict, witness and column-sum stats as the run it resumed
      (column determinism — the [jobs]-invariance property).  With
      checkpointing active a tripped budget merges the completed
      columns' partial stats instead of falling back to the sequential
      engine, so budget-tripped node counts are column-granular.

      [reduce] (default false) turns on dependency-aware partial-order
      reduction: the solver memoizes candidate survival per
      (commutation class, depth, switch count, inherited linearization)
      using the [Reduct] trace fingerprint, so subtrees reached by
      schedules that differ only in the order of adjacent commuting
      base-object accesses are explored once.  Trace-equivalent nodes
      have identical histories and record arrays, hence isomorphic game
      subtrees, so the verdict is preserved; the witness (deepest dead
      end, first in DFS order) sits in the explored region and is
      preserved too — modulo 62-bit fingerprint collisions, which is
      why the SL game only reduces on request while unreduced runs stay
      byte-identical to previous releases.  Reduced verdicts and node
      counts are themselves deterministic across [jobs] (one memo sees
      each column in DFS order).

      [reduce_check] (debug cross-validation; implies [reduce])
      re-explores every memo hit and raises [Invalid_argument] if a
      commutation-equivalent subtree disagrees with the stored verdict
      — the mechanized form of the isomorphic-subtree argument.  Node
      counts under [reduce_check] are close to unreduced (every twin is
      re-walked), so it validates soundness, not speed.

      [preempt_bound] (off by default; clamped to >= 0) conservatively
      restricts exploration to schedules with at most N preemptions — a
      context switch away from a still-enabled process.  Composes with
      budgets and [reduce] (the switch count is part of the memo key).
      Refutations found under the bound are sound; a successful game
      with at least one child dropped degrades to [Out_of_budget] with
      [Budget_preempt].

      [crashes] (default 0) lets the adversary also crash processes: at
      every node, while the branch has crashed fewer than [crashes]
      processes, each enabled process may be crashed as well as stepped
      (the children are the steps, then the crashes, in enabled order).
      A crash permanently removes the process and appends no trace
      event, so its pending operation stays pending forever.  Schedules
      and witnesses in the verdict are then action lists: [p] steps
      process [p] and [128 + p] crashes it, printed as [!p] by
      {!pp_verdict}.  Because a crash changes no history, the verdict
      must agree with the crash-free one; node counts grow about
      (n+1)-fold per allowed crash, so callers usually raise
      [max_nodes].  Every other option applies unchanged: [jobs] also
      solves crash columns in parallel, and [reduce] adds the crashed
      set to its memo key.
      @raise Invalid_argument when [crashes > 0] with more than 128
      processes or together with [preempt_bound]. *)

  val verdict_fields : verdict -> (string * Obs_json.t) list
  (** The verdict as JSON fields (constructor tag plus its payload). *)

  (** {1 Internals}

      Building blocks of the game solver, exposed so {!Witness.Make} can
      replay them on small certificate subtrees and so tests can drive
      the incremental node evaluation.  Not intended for direct use. *)
  module Internal : sig
    val validate_prefix :
      (S.op, S.resp) History.op_record list -> linearization -> S.state list option
    (** State set of the spec after committing [linearization] against
        the given records, or [None] if some committed response is
        invalidated. *)

    val extensions :
      (S.op, S.resp) History.op_record list ->
      linearization ->
      S.state list ->
      linearization list
    (** Minimal valid linearizations of the records extending the given
        prefix (whose state set is the third argument). *)

    type node_info
    (** A tree node's evaluated state: record array, precedence masks,
        enabled set and trace length. *)

    val info_of_world : (S.op, S.resp) Sim.t -> node_info
    (** Evaluate a node from scratch (full trace walk). *)

    val extend_info : node_info -> (S.op, S.resp) Sim.t -> node_info
    (** [extend_info parent w] evaluates a node incrementally from its
        parent's state and the trace delta of [w], whose trace must
        extend the parent's.  O(delta + new_ops * n). *)

    val cross_check : node_info -> (S.op, S.resp) Sim.t -> unit
    (** Compare the incrementally maintained records against a full
        re-derivation from [w]'s trace.
        @raise Invalid_argument on divergence (a checker bug). *)
  end
end
