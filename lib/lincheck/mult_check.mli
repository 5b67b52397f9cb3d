(** Linearizability with multiplicity (paper §5, footnote 3; after
    Castañeda–Rajsbaum–Raynal).

    The relaxation: dequeues (pops) that are pairwise concurrent may
    return the same item; such duplicated operations are linearized
    consecutively.  Because the relaxation is only available to
    {e concurrent} operations, the check is interval-sensitive and cannot
    be phrased as a {!Spec.S} state machine — it gets its own search.

    Only plain linearizability is decided here; the strong-
    linearizability status of multiplicity objects is settled by the
    paper's Theorem 17 (they are 1-ordering), exhibited in this
    repository by running Algorithm B on {!Rw_mult_queue}. *)

type kind =
  | Queue  (** FIFO discipline *)
  | Stack  (** LIFO discipline; encode Push/Pop as [Enq]/[Deq] *)

type outcome =
  | Decided of bool
  | Inconclusive of { visited : int; reason : Lincheck.budget_reason }
      (** A budget tripped after entering [visited] DFS states. *)

val check : kind -> (Spec.Queue_spec.op, Spec.Queue_spec.resp) Trace.t -> bool
(** [check kind t]: is [t] linearizable as a [kind] with multiplicity?
    Pending operations may be included when needed.
    @raise Invalid_argument beyond 60 operations. *)

val check_budgeted :
  ?budget_nodes:int ->
  ?budget_ms:int ->
  ?reduce:bool ->
  ?profiler:Prof.t ->
  ?coverage:Coverage.t ->
  kind ->
  (Spec.Queue_spec.op, Spec.Queue_spec.resp) Trace.t ->
  outcome
(** Like {!check} but with graceful degradation: [budget_nodes] bounds
    DFS states entered and [budget_ms] bounds wall-clock time; a tripped
    budget yields [Inconclusive] instead of an unbounded search.  With no
    budgets set this is [Decided (check kind t)].

    [reduce] (default false) memoizes DFS states on (mask, items,
    group): linearization orders that converge on the same abstract
    state share one sub-search.  The decision is unchanged (the answer
    is a pure function of that key); [visited] counts drop, which is
    why the memo is opt-in.  Memo hits are reported as profiler
    [prunes].

    [profiler] records the DFS as one solve span on lane 0 with one work
    unit per visited state (and a [budget] kill if a budget trips);
    passive — the outcome is unchanged.

    [coverage] records the checked trace as one observed world on
    shard 0 (fingerprint + access pairs); passive too. *)
