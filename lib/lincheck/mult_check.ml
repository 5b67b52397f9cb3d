(* Linearizability with multiplicity (paper §5, footnote 3; after
   Castañeda–Rajsbaum–Raynal).

   A queue (or stack) with multiplicity relaxes the exact object in one
   way: dequeues (pops) that are {e pairwise concurrent} may return the
   same item, and such duplicated operations are linearized consecutively
   (the set-linearizability view collapses them into one point).  We
   check the equivalent sequential formulation: there must be a
   linearization in which a dequeue may repeat the item of the
   immediately preceding dequeue, provided it overlaps every operation of
   the duplicate group; any other operation closes the group.

   This checker is interval-sensitive (the relaxation is only available
   to concurrent operations), which is why it cannot be phrased as a
   [Spec.S] state machine and gets its own search.  Only plain
   linearizability is decided here — the strong-linearizability status of
   multiplicity objects is settled by the paper's Theorem 17 (they are
   1-ordering), exhibited in this repository by running Algorithm B on
   the read/write multiplicity queue. *)

type kind = Queue | Stack

type outcome =
  | Decided of bool
  | Inconclusive of { visited : int; reason : Lincheck.budget_reason }

(* Search state: remaining items structure + the open duplicate group. *)
type search_state = {
  items : int list;  (* queue: front first; stack: top first *)
  group : (int * int list) option;  (* duplicated item, op ids in the group *)
}

let check_budgeted ?budget_nodes ?budget_ms ?(reduce = false) ?profiler ?coverage
    (kind : kind) (t : (Spec.Queue_spec.op, Spec.Queue_spec.resp) Trace.t) : outcome =
  (* Coverage (passive): the checked trace is one observed world — its
     fingerprint and access pairs land on shard 0 before the DFS runs,
     so budget trips cannot hide the observation. *)
  (match coverage with
  | Some c ->
      let sh = Coverage.shard c ~domain:0 in
      Coverage.observe_node sh ~depth:(Trace.step_count t) ~branching:0 t
  | None -> ());
  let records = History.of_trace t |> Array.of_list in
  let n = Array.length records in
  if n > 60 then invalid_arg "Mult_check: more than 60 operations";
  let pred = Array.make n 0 in
  Array.iteri
    (fun i ri ->
      Array.iteri
        (fun j rj -> if i <> j && History.precedes rj ri then pred.(i) <- pred.(i) lor (1 lsl j))
        records;
      ignore ri)
    records;
  let completed_mask = ref 0 in
  Array.iteri
    (fun i r -> if History.is_complete r then completed_mask := !completed_mask lor (1 lsl i))
    records;
  let completed_mask = !completed_mask in
  let overlaps_all ids i =
    List.for_all (fun j -> History.overlapping records.(i) records.(j)) ids
  in
  (* Outcomes of linearizing op [i] in state [s]: list of (state', resp). *)
  let outcomes s i =
    match records.(i).History.op with
    | Spec.Queue_spec.Enq x ->
        let items = match kind with Queue -> s.items @ [ x ] | Stack -> x :: s.items in
        [ ({ items; group = None }, Spec.Queue_spec.Ok_) ]
    | Spec.Queue_spec.Deq -> (
        let dup =
          match s.group with
          | Some (x, ids) when overlaps_all ids i ->
              [ ({ s with group = Some (x, i :: ids) }, Spec.Queue_spec.Item x) ]
          | _ -> []
        in
        match s.items with
        | [] -> ({ items = []; group = None }, Spec.Queue_spec.Empty) :: dup
        | x :: rest -> ({ items = rest; group = Some (x, [ i ]) }, Spec.Queue_spec.Item x) :: dup)
  in
  (* Budget accounting mirrors [Lincheck.check_strong_stats]: one unit
     per DFS state entered, budgets checked on entry so a tripped budget
     stops within one expansion. *)
  let t0 = Obs.now_ns () in
  let visited = ref 0 in
  let tripped = ref Lincheck.Budget_nodes in
  let stop reason =
    tripped := reason;
    raise Lincheck.Budget_exhausted
  in
  (* Partial-order reduction ([reduce]): the DFS answer is a pure
     function of (mask, state) — which operations are already
     linearized and what the abstract object looks like — so
     linearization orders that converge on the same (mask, items,
     group) share one sub-search.  The memo is consulted before the
     state is counted (a hit costs no visit); exception paths (budget
     trips) cache nothing.  Gated behind [reduce] because memo hits
     change [visited] counts (never the decision). *)
  let memo : (int * int list * (int * int list) option, bool) Hashtbl.t option =
    if reduce then Some (Hashtbl.create 1024) else None
  in
  let prunes = ref 0 in
  let rec dfs mask s =
    match memo with
    | Some m -> (
        let key = (mask, s.items, s.group) in
        match Hashtbl.find_opt m key with
        | Some r ->
            incr prunes;
            r
        | None ->
            let r = dfs_state mask s in
            Hashtbl.replace m key r;
            r)
    | None -> dfs_state mask s
  and dfs_state mask s =
    incr visited;
    (match budget_nodes with
    | Some b when !visited > b -> stop Lincheck.Budget_nodes
    | _ -> ());
    (match budget_ms with
    | Some ms when Obs.now_ns () - t0 > ms * 1_000_000 -> stop Lincheck.Budget_wall
    | _ -> ());
    if completed_mask land lnot mask = 0 then true
    else begin
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < n do
        let idx = !i in
        if mask land (1 lsl idx) = 0 && pred.(idx) land lnot mask = 0 then
          List.iter
            (fun (s', resp) ->
              if not !found then
                let resp_ok =
                  match records.(idx).History.resp with
                  | None -> true
                  | Some actual -> Spec.Queue_spec.equal_resp actual resp
                in
                if resp_ok && dfs (mask lor (1 lsl idx)) s' then found := true)
            (outcomes s idx);
        incr i
      done;
      !found
    end
  in
  (* Profiling (passive): one solve span for the DFS, one work unit per
     visited state, a budget kill when a budget trips. *)
  let lane = Option.map (fun p -> Prof.lane p ~domain:0) profiler in
  (match lane with Some l -> Prof.begin_span l Prof.Solve ~label:"mult dfs" () | None -> ());
  let outcome =
    match dfs 0 { items = []; group = None } with
    | decided -> Decided decided
    | exception Lincheck.Budget_exhausted ->
        (match lane with Some l -> Prof.kill l Prof.Kill_budget | None -> ());
        Inconclusive { visited = !visited; reason = !tripped }
  in
  (match lane with
  | Some l ->
      Prof.add_nodes l !visited;
      Prof.add_prunes l !prunes;
      Prof.end_span l
  | None -> ());
  outcome

let check kind t =
  match check_budgeted kind t with
  | Decided b -> b
  | Inconclusive _ -> assert false (* no budget set, so dfs cannot trip one *)
