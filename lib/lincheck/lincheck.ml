(* Linearizability and strong-linearizability checking.

   [Make (S)] provides two checkers for programs whose high-level
   operations follow specification [S]:

   - [check_trace] decides whether one execution trace is linearizable:
     is there a sequential execution of [S] containing every completed
     operation (with its actual response), possibly some pending ones, and
     respecting real-time order?  (Paper §2's definition.)

   - [check_strong] decides whether a {e prefix-closed} linearization
     function exists on the tree of all executions of a program (up to a
     node budget): an assignment of a linearization L(v) to every node v
     such that L(child) extends L(parent) by appending operations only.
     This is precisely strong linearizability (Golab–Higham–Woelfel)
     restricted to the explored tree, so:

       - a [Not_strongly_linearizable] verdict is a {e proof} that the
         implementation is not strongly linearizable (the finite witness
         tree embeds in the full execution tree);
       - a [Strongly_linearizable] verdict is exhaustive for the given
         workload: no adversary scheduling that workload can violate
         prefix-closedness.

   The game solver enumerates, at each node, the {e minimal} valid
   linearizations extending the parent's choice — sequences that place
   every completed operation and only those pending operations forced
   before a completed one.  Minimality is sound: if L is a prefix of L'
   then every child strategy for L' is also one for L, so committing to
   unforced pending operations never helps. *)

exception Budget_exhausted

(* Which budget converted the run into an inconclusive verdict.  Node
   budgets predate the others; their rendering (pretty and JSON) is
   pinned byte-for-byte, so the new reasons only ever add output.
   [Budget_interrupt] is external: a signal handler, per-request
   deadline or supervisor cancellation asked the run to stop.
   [Budget_preempt] is the conservative [--preempt-bound] truncation: a
   successful game on the restricted tree proves nothing about the full
   one, so the verdict degrades exactly like a budget trip (refutations
   found under the bound remain sound — every visited node is real). *)
type budget_reason = Budget_nodes | Budget_wall | Budget_heap | Budget_interrupt | Budget_preempt

let budget_reason_tag = function
  | Budget_nodes -> "nodes"
  | Budget_wall -> "wall_ms"
  | Budget_heap -> "heap_mb"
  | Budget_interrupt -> "interrupt"
  | Budget_preempt -> "preempt_bound"

let heap_mb_now () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  words * (Sys.word_size / 8) / (1024 * 1024)

(* Exploration statistics for one [check_strong] run.  Spec-independent,
   hence outside the functor.  [nodes] always equals the count carried
   by the verdict; the rest explains where the work went: how many
   candidate linearizations the enumerator produced, how many died at a
   child ([candidates_killed] — the game's backtracking), how many nodes
   admitted no extension at all ([dead_ends]), and how often the
   schedule cache saved a replay. *)
type stats = {
  nodes : int;  (* distinct tree nodes explored (= verdict's count) *)
  cache_hits : int;  (* node lookups answered from the schedule cache *)
  max_frontier_depth : int;  (* deepest schedule prefix reached *)
  candidates_generated : int;  (* minimal linearizations enumerated *)
  candidates_killed : int;  (* candidates refuted at some child *)
  dead_ends : int;  (* nodes with no valid extension *)
  validate_failures : int;  (* inherited prefixes invalidated by new responses *)
  elapsed_ns : int;
}

let nodes_per_sec st =
  if st.elapsed_ns <= 0 then 0. else float_of_int st.nodes *. 1e9 /. float_of_int st.elapsed_ns

let pp_stats fmt st =
  Format.fprintf fmt
    "@[<v>nodes explored        %d@,\
     exploration rate      %.0f nodes/s@,\
     max frontier depth    %d@,\
     candidates generated  %d@,\
     linearizations killed %d@,\
     dead-end nodes        %d@,\
     prefix invalidations  %d@,\
     cache hits            %d@,\
     elapsed               %.3f s@]"
    st.nodes (nodes_per_sec st) st.max_frontier_depth st.candidates_generated
    st.candidates_killed st.dead_ends st.validate_failures st.cache_hits
    (float_of_int st.elapsed_ns /. 1e9)

let stats_fields st =
  [
    ("nodes", Obs_json.Int st.nodes);
    ("nodes_per_sec", Obs_json.Float (nodes_per_sec st));
    ("max_frontier_depth", Obs_json.Int st.max_frontier_depth);
    ("candidates_generated", Obs_json.Int st.candidates_generated);
    ("candidates_killed", Obs_json.Int st.candidates_killed);
    ("dead_ends", Obs_json.Int st.dead_ends);
    ("validate_failures", Obs_json.Int st.validate_failures);
    ("cache_hits", Obs_json.Int st.cache_hits);
    ("elapsed_ns", Obs_json.Int st.elapsed_ns);
  ]

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume (slin-checkpoint/v1)                            *)
(* ------------------------------------------------------------------ *)

(* Bumped whenever exploration order, node accounting or the column
   split change: a checkpoint (or a memoized serve verdict) produced by
   a different engine must never be replayed. *)
let engine_fingerprint = "slin-engine/incremental-columns-v1"

let checkpoint_schema = "slin-checkpoint/v1"

(* The resumable unit is one completed top-level column.  The game at
   the root reduces to "every top-level subtree admits the empty
   linearization", the columns are solved independently, and the merge
   is deterministic — the exact invariance the engine-equivalence suite
   pins for [jobs].  So skipping recorded columns and re-running the
   rest provably reaches the uninterrupted verdict, witness and counts.
   A finer-grained (mid-DFS) checkpoint would have to serialize the
   recursion stack and the schedule cache; column granularity costs at
   most one column of redone work and stays spec-independent. *)
type col_checkpoint = {
  col_index : int;
  col_outcome : string;  (* "ok" | "failed" | "not-lin" *)
  col_schedule : int list;  (* Not_linearizable schedule, else [] *)
  col_nodes : int;
  col_hits : int;
  col_frontier : int;
  col_cand : int;
  col_killed : int;
  col_dead : int;
  col_vfail : int;
  col_wit : (int * int list) list;  (* temporal order *)
  col_pruned : bool;  (* preempt bound dropped children in this column *)
}

type checkpoint = { ck_config : string; ck_columns : col_checkpoint list }

(* FNV-1a 64-bit over the canonical JSON body: cheap, deterministic,
   and plenty for integrity (corruption detection, identity checks) —
   this is not a security boundary. *)
let fnv64 (s : string) =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let col_checkpoint_to_json (c : col_checkpoint) =
  Obs_json.Assoc
    ([
      ("col", Obs_json.Int c.col_index);
      ("outcome", Obs_json.String c.col_outcome);
      ("schedule", Obs_json.List (List.map (fun p -> Obs_json.Int p) c.col_schedule));
      ("nodes", Obs_json.Int c.col_nodes);
      ("hits", Obs_json.Int c.col_hits);
      ("frontier", Obs_json.Int c.col_frontier);
      ("cand", Obs_json.Int c.col_cand);
      ("killed", Obs_json.Int c.col_killed);
      ("dead", Obs_json.Int c.col_dead);
      ("vfail", Obs_json.Int c.col_vfail);
      ( "wit",
        Obs_json.List
          (List.map
             (fun (d, pth) ->
               Obs_json.Assoc
                 [
                   ("depth", Obs_json.Int d);
                   ("path", Obs_json.List (List.map (fun p -> Obs_json.Int p) pth));
                 ])
             c.col_wit) );
    ]
    (* Appended only when set, so every pre-preempt-bound checkpoint
       body — and hence its digest — is byte-identical to before. *)
    @ if c.col_pruned then [ ("pruned", Obs_json.Bool true) ] else [])

let checkpoint_body ck =
  Obs_json.to_string
    (Obs_json.Assoc
       [
         ("engine", Obs_json.String engine_fingerprint);
         ("config", Obs_json.String ck.ck_config);
         ("columns", Obs_json.List (List.map col_checkpoint_to_json ck.ck_columns));
       ])

let checkpoint_fingerprint ck = fnv64 (checkpoint_body ck)

let checkpoint_to_json ck =
  Obs_json.Assoc
    [
      ("schema", Obs_json.String checkpoint_schema);
      ("engine", Obs_json.String engine_fingerprint);
      ("config", Obs_json.String ck.ck_config);
      ("fingerprint", Obs_json.String (checkpoint_fingerprint ck));
      ("columns", Obs_json.List (List.map col_checkpoint_to_json ck.ck_columns));
    ]

let checkpoint_of_json j : (checkpoint, string) result =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let field name conv o =
    match Option.bind (Obs_json.member name o) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "checkpoint: missing or ill-typed %S" name)
  in
  let* schema = field "schema" Obs_json.to_str j in
  if schema <> checkpoint_schema then
    Error (Printf.sprintf "checkpoint: unsupported schema %S (want %S)" schema checkpoint_schema)
  else
    let* engine = field "engine" Obs_json.to_str j in
    if engine <> engine_fingerprint then
      Error
        (Printf.sprintf "checkpoint: engine %S does not match this binary's %S" engine
           engine_fingerprint)
    else
      let* config = field "config" Obs_json.to_str j in
      let* fp = field "fingerprint" Obs_json.to_str j in
      let* cols = field "columns" Obs_json.to_list j in
      let parse_col o =
        let* idx = field "col" Obs_json.to_int o in
        let* outcome = field "outcome" Obs_json.to_str o in
        if outcome <> "ok" && outcome <> "failed" && outcome <> "not-lin" then
          Error (Printf.sprintf "checkpoint: column %d has unknown outcome %S" idx outcome)
        else
          let* schedule = field "schedule" Obs_json.to_int_list o in
          let* nodes = field "nodes" Obs_json.to_int o in
          let* hits = field "hits" Obs_json.to_int o in
          let* frontier = field "frontier" Obs_json.to_int o in
          let* cand = field "cand" Obs_json.to_int o in
          let* killed = field "killed" Obs_json.to_int o in
          let* dead = field "dead" Obs_json.to_int o in
          let* vfail = field "vfail" Obs_json.to_int o in
          let* wit = field "wit" Obs_json.to_list o in
          let* wit =
            List.fold_left
              (fun acc w ->
                let* acc = acc in
                let* d = field "depth" Obs_json.to_int w in
                let* pth = field "path" Obs_json.to_int_list w in
                Ok ((d, pth) :: acc))
              (Ok []) wit
          in
          (* Optional: absent in every checkpoint written before the
             preempt bound existed. *)
          let pruned =
            match Obs_json.member "pruned" o with Some (Obs_json.Bool b) -> b | _ -> false
          in
          Ok
            {
              col_index = idx;
              col_outcome = outcome;
              col_schedule = schedule;
              col_nodes = nodes;
              col_hits = hits;
              col_frontier = frontier;
              col_cand = cand;
              col_killed = killed;
              col_dead = dead;
              col_vfail = vfail;
              col_wit = List.rev wit;
              col_pruned = pruned;
            }
      in
      let* columns =
        List.fold_left
          (fun acc o ->
            let* acc = acc in
            let* c = parse_col o in
            Ok (c :: acc))
          (Ok []) cols
      in
      let ck = { ck_config = config; ck_columns = List.rev columns } in
      if checkpoint_fingerprint ck <> fp then
        Error "checkpoint: content digest mismatch (corrupted or hand-edited file)"
      else Ok ck

type checkpointing = {
  cp_config : string;
  cp_resume : checkpoint option;
  cp_emit : checkpoint -> unit;
}

module Make (S : Spec.S) = struct
  type entry = { op_id : int; eresp : S.resp }

  type linearization = entry list

  let pp_entry records fmt e =
    let r = List.find (fun (r : _ History.op_record) -> r.id = e.op_id) records in
    Format.fprintf fmt "#%d p%d %a -> %a" r.History.id r.History.proc S.pp_op r.History.op
      S.pp_resp e.eresp

  let pp_linearization records fmt l =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
      (pp_entry records) fmt l

  (* ---------------------------------------------------------------- *)
  (* Shared machinery                                                  *)
  (* ---------------------------------------------------------------- *)

  (* Deduplicating a state set costs a polymorphic sort; deterministic
     specs produce singletons on the hot path, where sorting is the
     identity — skip it. *)
  let sort_uniq_states = function ([] | [ _ ]) as l -> l | l -> List.sort_uniq compare l

  (* Nondeterministic specs: a sequence of (op, resp) pairs corresponds to
     a set of possible states.  [step_states] advances the whole set,
     keeping only outcomes whose response matches. *)
  let step_states states op resp =
    List.concat_map (fun s -> S.apply s op) states
    |> List.filter_map (fun (s', r) -> if S.equal_resp r resp then Some s' else None)
    |> sort_uniq_states

  (* All (resp, next-states) groups reachable by applying [op] to any
     state in [states]. *)
  let outcome_groups states op =
    let outcomes = List.concat_map (fun s -> S.apply s op) states in
    let acc : (S.resp * S.state list) list ref = ref [] in
    List.iter
      (fun (s', r) ->
        let rec insert = function
          | [] -> [ (r, [ s' ]) ]
          | (r0, ss) :: rest ->
              if S.equal_resp r0 r then (r0, s' :: ss) :: rest else (r0, ss) :: insert rest
        in
        acc := insert !acc)
      outcomes;
    List.map (fun (r, ss) -> (r, sort_uniq_states ss)) !acc

  (* Precedence masks for a list of records (ids are dense 0..n-1). *)
  let build_masks (records : (S.op, S.resp) History.op_record list) =
    let arr = Array.of_list records in
    let n = Array.length arr in
    if n > 60 then invalid_arg "Lincheck: more than 60 operations";
    let pred = Array.make n 0 in
    Array.iteri
      (fun i ri ->
        Array.iteri
          (fun j rj -> if i <> j && History.precedes rj ri then pred.(i) <- pred.(i) lor (1 lsl j))
          arr;
        ignore ri)
      arr;
    (arr, pred)

  let completed_mask_of arr =
    let m = ref 0 in
    Array.iteri (fun i r -> if History.is_complete r then m := !m lor (1 lsl i)) arr;
    !m

  (* Validate a linearization prefix against the (possibly extended)
     records of a node: responses of now-completed operations must match
     the committed ones, and the sequence must still be spec-valid.
     Returns the state set after the prefix, or None. *)
  let validate_over (arr : (S.op, S.resp) History.op_record array) (lin : linearization) =
    let rec go states = function
      | [] -> Some states
      | e :: rest ->
          if e.op_id >= Array.length arr then None
          else
            let r = arr.(e.op_id) in
            let resp_ok =
              match r.History.resp with None -> true | Some actual -> S.equal_resp actual e.eresp
            in
            if not resp_ok then None
            else
              let states' = step_states states r.History.op e.eresp in
              if states' = [] then None else go states' rest
    in
    go [ S.init ] lin

  let validate_prefix records lin = validate_over (Array.of_list records) lin

  (* Enumerate the minimal valid linearizations extending [lin] (whose
     state set is [states0]): place every completed operation; pending
     operations appear only in the interior (the last element of every
     extension is completed, or the extension is empty).  Works over a
     node's precomputed record array and masks so the solver never
     rebuilds them per candidate.  Returns deduplicated entry lists, in
     a deterministic order (reverse of first-emission order, which the
     solver's candidate priority depends on). *)
  let extensions_over (arr : (S.op, S.resp) History.op_record array) (pred : int array)
      (completed_mask : int) (lin : linearization) states0 =
    let n = Array.length arr in
    let in_lin = List.fold_left (fun m e -> m lor (1 lsl e.op_id)) 0 lin in
    let results = ref [] in
    (* Dedup is structural: extensions bucketed by their op-id sequence
       (packed into a string key), responses compared with [S.equal_resp].
       Keying on [Format.asprintf "%a" S.pp_resp] was both slow and
       unsound when the printer is not injective — two distinct responses
       printing alike would wrongly collapse into one candidate. *)
    let seen : (string, S.resp list list) Hashtbl.t = Hashtbl.create 16 in
    let emit rev_acc =
      let ext = List.rev rev_acc in
      let len = List.length ext in
      let key =
        let b = Bytes.create len in
        List.iteri (fun i e -> Bytes.unsafe_set b i (Char.unsafe_chr e.op_id)) ext;
        Bytes.unsafe_to_string b
      in
      let resps = List.map (fun e -> e.eresp) ext in
      let bucket = Option.value (Hashtbl.find_opt seen key) ~default:[] in
      if not (List.exists (fun rs -> List.for_all2 S.equal_resp rs resps) bucket) then begin
        Hashtbl.replace seen key (resps :: bucket);
        results := ext :: !results
      end
    in
    let rec go mask states rev_acc =
      if completed_mask land lnot mask = 0 then emit rev_acc
      else
        for i = 0 to n - 1 do
          if mask land (1 lsl i) = 0 && pred.(i) land lnot mask = 0 then begin
            let r = arr.(i) in
            match r.History.resp with
            | Some actual ->
                let states' = step_states states r.History.op actual in
                if states' <> [] then
                  go (mask lor (1 lsl i)) states' ({ op_id = i; eresp = actual } :: rev_acc)
            | None ->
                List.iter
                  (fun (resp, states') ->
                    go (mask lor (1 lsl i)) states' ({ op_id = i; eresp = resp } :: rev_acc))
                  (outcome_groups states r.History.op)
          end
        done
    in
    go in_lin states0 [];
    List.map (fun ext -> lin @ ext) !results

  let extensions (records : (S.op, S.resp) History.op_record list) (lin : linearization) states0 =
    let arr, pred = build_masks records in
    extensions_over arr pred (completed_mask_of arr) lin states0

  (* ---------------------------------------------------------------- *)
  (* Incremental node evaluation                                       *)
  (* ---------------------------------------------------------------- *)

  (* Everything the solver needs about one tree node, computed once and
     cached: the record array with its precedence masks (so [extensions]
     never rebuilds them per candidate), the enabled set, how much trace
     the records cover, and a lazily-memoized answer to "is this node's
     execution linearizable at all?" (the dead-end root check). *)
  type node_info = {
    rec_arr : (S.op, S.resp) History.op_record array;
    pred : int array;
    completed_mask : int;
    enabled : int list;
    trace_len : int;
    fp : Reduct.fp_state;
        (* commutation-invariant trace fingerprint: equal (modulo hash
           collisions) for nodes whose schedules differ only by swaps of
           adjacent commuting base-object accesses.  Such nodes have
           identical histories and record arrays, so the reduction memo
           may answer one from the other. *)
    mutable root_linearizable : bool option;
  }

  let info_of_world (w : (S.op, S.resp) Sim.t) =
    let trace = Sim.trace w in
    let arr, pred = build_masks (History.of_trace trace) in
    {
      rec_arr = arr;
      pred;
      completed_mask = completed_mask_of arr;
      enabled = Sim.enabled w;
      trace_len = Sim.trace_len w;
      fp = Reduct.fp_feed_list Reduct.fp_empty trace;
      root_linearizable = None;
    }

  (* Extend [parent]'s evaluated state by the trace delta of [w], a world
     whose trace extends the parent node's (the child is the parent's
     schedule plus steps; execution is deterministic, so this holds
     whether [w] was stepped in place or rebuilt from scratch).

     Why existing rows survive: every event in the delta sits at a trace
     position >= [parent.trace_len] > the [inv_index] of every existing
     record, so a newly completed operation precedes no existing one and
     no existing pair changes order — [precedes] on old pairs is final.
     Completions only fill [resp]/[res_index] of a pending record; fresh
     invocations append records whose precedence rows are computed
     against the finished array.  Cost: O(delta + new_ops * n) instead
     of O(trace * n + n^2) per node. *)
  let extend_info (parent : node_info) (w : (S.op, S.resp) Sim.t) =
    let enabled = Sim.enabled w in
    let trace_len = Sim.trace_len w in
    let delta = Sim.events_from w ~from:parent.trace_len in
    let fp = Reduct.fp_feed_list parent.fp delta in
    if not (List.exists (function Trace.Step _ -> false | _ -> true) delta) then
      (* Base-object steps only: the history is untouched, share every
         array (and the memoized root check) with the parent. *)
      { parent with enabled; trace_len; fp }
    else begin
      let n0 = Array.length parent.rec_arr in
      (* Open operation per process: parent's pending records, updated as
         the delta is scanned. *)
      let open_slot = Array.make (Sim.n w) (-1) in
      Array.iter
        (fun (r : _ History.op_record) ->
          if History.is_pending r then open_slot.(r.History.proc) <- r.History.id)
        parent.rec_arr;
      let news = ref [] in
      (* id -> completed copy, for records whose Return is in the delta *)
      let updates : (int, (S.op, S.resp) History.op_record) Hashtbl.t = Hashtbl.create 8 in
      let next_id = ref n0 in
      List.iteri
        (fun i ev ->
          let idx = parent.trace_len + i in
          match ev with
          | Trace.Step _ -> ()
          | Trace.Invoke { proc; op } ->
              let r =
                { History.id = !next_id; proc; op; resp = None; inv_index = idx; res_index = None }
              in
              incr next_id;
              open_slot.(proc) <- r.History.id;
              news := r :: !news
          | Trace.Return { proc; resp } ->
              let id = open_slot.(proc) in
              if id < 0 then invalid_arg "Lincheck: return without invocation in trace delta";
              open_slot.(proc) <- -1;
              let r =
                if id < n0 then parent.rec_arr.(id)
                else List.find (fun (r : _ History.op_record) -> r.History.id = id) !news
              in
              Hashtbl.replace updates id
                { r with History.resp = Some resp; res_index = Some idx })
        delta;
      let n = !next_id in
      if n > 60 then invalid_arg "Lincheck: more than 60 operations";
      let news_arr = Array.of_list (List.rev !news) in
      let fetch id =
        match Hashtbl.find_opt updates id with
        | Some r -> r
        | None -> if id < n0 then parent.rec_arr.(id) else news_arr.(id - n0)
      in
      let arr = Array.init n fetch in
      let pred = Array.make n 0 in
      Array.blit parent.pred 0 pred 0 n0;
      for i = n0 to n - 1 do
        let ri = arr.(i) in
        let m = ref 0 in
        for j = 0 to n - 1 do
          if j <> i && History.precedes arr.(j) ri then m := !m lor (1 lsl j)
        done;
        pred.(i) <- !m
      done;
      let completed_mask =
        Hashtbl.fold (fun id _ m -> m lor (1 lsl id)) updates parent.completed_mask
      in
      { rec_arr = arr; pred; completed_mask; enabled; trace_len; fp; root_linearizable = None }
    end

  (* Anchor check: recompute the node's records from the full trace and
     compare with the incrementally maintained ones.  Run at every node
     whose depth is a multiple of the checkpoint stride; a divergence is
     a checker bug, never a property of the object under test. *)
  let cross_check (info : node_info) (w : (S.op, S.resp) Sim.t) =
    if History.of_trace (Sim.trace w) <> Array.to_list info.rec_arr then
      invalid_arg "Lincheck: incremental node state diverged from full replay"

  let root_linearizable (info : node_info) =
    match info.root_linearizable with
    | Some b -> b
    | None ->
        let b = extensions_over info.rec_arr info.pred info.completed_mask [] [ S.init ] <> [] in
        info.root_linearizable <- Some b;
        b

  (* ---------------------------------------------------------------- *)
  (* Single-trace linearizability                                      *)
  (* ---------------------------------------------------------------- *)

  let check_trace (t : (S.op, S.resp) Trace.t) : linearization option =
    let records = History.of_trace t in
    match extensions records [] [ S.init ] with [] -> None | l :: _ -> Some l

  let is_linearizable t = check_trace t <> None

  (* ---------------------------------------------------------------- *)
  (* Strong linearizability on the execution tree                      *)
  (* ---------------------------------------------------------------- *)

  type verdict =
    | Strongly_linearizable of { nodes : int }
    | Not_linearizable of { schedule : int list }
    | Not_strongly_linearizable of { witness : int list; nodes : int }
    | Out_of_budget of { nodes : int; reason : budget_reason }

  (* The game's actions: code [p] steps process [p], code
     [crash_code + p] crashes it (only offered when [crashes > 0]).  One
     action is one byte of a packed cache key, hence at most 128
     processes in a crash game.  A crash appends no trace event: it only
     removes the process from the enabled set. *)
  let crash_code = 128

  let apply_action w a = if a >= crash_code then Sim.crash w (a - crash_code) else Sim.step w a

  let pp_actions l =
    String.concat ""
      (List.map
         (fun a -> if a >= crash_code then "!" ^ string_of_int (a - crash_code) else string_of_int a)
         l)

  let pp_verdict fmt = function
    | Strongly_linearizable { nodes } ->
        Format.fprintf fmt "strongly linearizable (%d nodes explored)" nodes
    | Not_linearizable { schedule } ->
        Format.fprintf fmt "NOT linearizable (schedule: %s)" (pp_actions schedule)
    | Not_strongly_linearizable { witness; nodes } ->
        Format.fprintf fmt "linearizable but NOT strongly linearizable (witness: %s; %d nodes)"
          (pp_actions witness) nodes
    | Out_of_budget { nodes; reason = Budget_nodes } ->
        Format.fprintf fmt "inconclusive: budget of %d nodes exhausted" nodes
    | Out_of_budget { nodes; reason = Budget_wall } ->
        Format.fprintf fmt "inconclusive: wall-clock budget exhausted after %d nodes" nodes
    | Out_of_budget { nodes; reason = Budget_heap } ->
        Format.fprintf fmt "inconclusive: memory budget exhausted after %d nodes" nodes
    | Out_of_budget { nodes; reason = Budget_interrupt } ->
        Format.fprintf fmt "inconclusive: interrupted after %d nodes" nodes
    | Out_of_budget { nodes; reason = Budget_preempt } ->
        Format.fprintf fmt "inconclusive: preemption bound pruned schedules (%d nodes explored)"
          nodes

  exception Found_not_linearizable of int list

  (* Raised inside a parallel worker when its column is past the
     sequential stopping point and its result can no longer matter. *)
  exception Abandoned

  (* One independent exploration state — counters, node cache, spine
     world and the recursive solver, bundled so the sequential checker
     (one engine, whole tree) and the parallel checker (one engine per
     top-level subtree) share the exact same code path. *)
  type engine = {
    en_nodes : int ref;
    en_hits : int ref;
    en_frontier : int ref;
    en_cand : int ref;
    en_killed : int ref;
    en_dead : int ref;
    en_vfail : int ref;
    en_wit : (int * int list) list ref;
        (* witness updates, newest first: (depth, forward schedule) at
           each strictly-deeper dead end *)
    en_tripped : budget_reason ref;
    en_pruned : bool ref;
        (* the preempt bound dropped at least one enabled child *)
    en_solve :
      int list -> int -> int -> int list -> string -> node_info option -> linearization -> bool;
        (* action path, depth, preemption-switch count, crashed processes
           (sorted), packed key, parent, lin *)
    en_dispose : unit -> unit;  (* frees the spine world once solving is over *)
  }

  (* Result of one parallel column (a top-level subtree solved with the
     empty inherited linearization). *)
  type col_outcome =
    | Col_ok of bool
    | Col_not_lin of int list
    | Col_tripped of budget_reason
    | Col_abandoned

  type col_result = {
    cr_outcome : col_outcome;
    cr_nodes : int;
    cr_hits : int;
    cr_frontier : int;
    cr_cand : int;
    cr_killed : int;
    cr_dead : int;
    cr_vfail : int;
    cr_wit : (int * int list) list;  (* temporal order *)
    cr_pruned : bool;
  }

  (* A checkpointed column replayed as if this run had solved it: the
     merge cannot tell a resumed column from a freshly solved one. *)
  let col_result_of_checkpoint (cc : col_checkpoint) =
    {
      cr_outcome =
        (match cc.col_outcome with
        | "ok" -> Col_ok true
        | "failed" -> Col_ok false
        | _ -> Col_not_lin cc.col_schedule);
      cr_nodes = cc.col_nodes;
      cr_hits = cc.col_hits;
      cr_frontier = cc.col_frontier;
      cr_cand = cc.col_cand;
      cr_killed = cc.col_killed;
      cr_dead = cc.col_dead;
      cr_vfail = cc.col_vfail;
      cr_wit = cc.col_wit;
      cr_pruned = cc.col_pruned;
    }

  (* [max_depth] truncates the tree: nodes at that depth get no children.
     Truncation preserves soundness of refutation — a prefix-closed
     linearization function on the full tree restricts to one on any
     truncated subtree, so if none exists on the subtree none exists at
     all — but makes a Strongly_linearizable verdict relative to the
     explored depth.  It is needed for implementations whose operations
     can spin (e.g. a queue's dequeue retrying on empty), which make the
     full tree infinite. *)
  let check_strong_stats ?(max_nodes = 200_000) ?max_depth ?budget_ms ?budget_heap_mb
      ?on_progress ?(progress_every = 10_000) ?(progress_every_ms = 1000) ?tracer ?profiler
      ?coverage ?(jobs = 1) ?(checkpoint_stride = 16) ?interrupt
      ?checkpointing ?(reduce = false) ?(reduce_check = false) ?preempt_bound ?(crashes = 0)
      (prog : (S.op, S.resp) Sim.program) : verdict * stats =
    let stride = max 1 checkpoint_stride in
    let jobs = max 1 jobs in
    let reduce = reduce || reduce_check in
    let preempt_bound = Option.map (max 0) preempt_bound in
    if prog.Sim.procs > 255 then invalid_arg "Lincheck: more than 255 processes";
    if crashes > 0 && prog.Sim.procs > 128 then
      invalid_arg "Lincheck: a crash game allows at most 128 processes";
    if crashes > 0 && preempt_bound <> None then
      invalid_arg "Lincheck: crashes and preempt_bound do not combine";
    (* A node's moves: step any enabled process and, while the branch has
       crashes left, crash any enabled process.  Crash-free games return
       the enabled list itself. *)
    let children (info : node_info) ~crashed =
      if List.length crashed >= crashes then info.enabled
      else info.enabled @ List.map (fun p -> crash_code + p) info.enabled
    in
    let crashed_after a crashed =
      if a < crash_code then crashed else List.merge compare [ a - crash_code ] crashed
    in
    let t0 = Obs.now_ns () in
    let lane_for w = Option.map (fun p -> Prof.lane p ~domain:w) profiler in
    let cov_for w = Option.map (fun c -> Coverage.shard c ~domain:w) coverage in
    (* One engine = one independent exploration: counters, node cache,
       spine world, recursive solver.  The sequential checker is one
       engine over the whole tree; the parallel checker runs one engine
       per top-level subtree — the subtrees' schedule prefixes are
       disjoint, so their caches partition the sequential engine's and
       their counters add up to its, column by column. *)
    let new_engine ~on_tick ~poll ~lane ~cov ~bump_global () =
      (* A tripped budget records its reason before unwinding; only read
         when [Budget_exhausted] escapes the solver. *)
      let tripped = ref Budget_nodes in
      let stop reason =
        tripped := reason;
        raise Budget_exhausted
      in
      let nodes = ref 0 in
      let cache_hits = ref 0 in
      let max_frontier = ref 0 in
      let cand_generated = ref 0 in
      let cand_killed = ref 0 in
      let dead_ends = ref 0 in
      let validate_failures = ref 0 in
      let wit_log = ref [] in
      let wit_len = ref 0 in
      (* Heartbeat + counter-track samples, every [progress_every] fresh
         nodes (never at node 0 — an exploration that has not expanded
         anything has nothing to report).  Nothing here feeds back into
         exploration. *)
      let tick () =
        if !nodes > 0 && !nodes mod progress_every = 0 then
          match on_tick with Some f -> f ~nodes:!nodes ~frontier:!max_frontier | None -> ()
      in
      (* Elapsed-time cadence alongside the node cadence: a cache-hit
         streak or a long anchored replay expands no fresh node for
         seconds, starving the node-count heartbeat.  Checked on every
         256th engine event (fresh or cached) so the clock read costs
         nothing measurable; disabled when [progress_every_ms <= 0] or
         when nobody is listening. *)
      let time_cadence = on_tick <> None && progress_every_ms > 0 in
      let next_beat = ref (t0 + (progress_every_ms * 1_000_000)) in
      let ev_count = ref 0 in
      let tick_time () =
        if time_cadence then begin
          incr ev_count;
          if !ev_count land 255 = 0 then begin
            let now = Obs.now_ns () in
            if now >= !next_beat then begin
              next_beat := now + (progress_every_ms * 1_000_000);
              match on_tick with
              | Some f -> f ~nodes:!nodes ~frontier:!max_frontier
              | None -> ()
            end
          end
        end
      in
      (* Why the last [solve] call returned false, for the profiler's
         candidate-kill attribution.  Written on every failing return
         path; read only at the kill site.  Never feeds back. *)
      let last_fail = ref Prof.Kill_mismatch in
      (* Node cache, keyed by the schedule prefix packed into a string
         (one byte per action code): hashing and equality become memcmp
         on a flat buffer instead of a polymorphic walk of an int list. *)
      let cache : (string, node_info) Hashtbl.t = Hashtbl.create 1024 in
      (* Spine world: the live world of the most recently evaluated fresh
         node.  Descending to that node's first fresh child is one
         action; any other fresh node is a full replay.  Fibers are
         one-shot continuations, so a world cannot be snapshotted — this
         single mutable spine is the only execution reuse available. *)
      let ev_world : (S.op, S.resp) Sim.t option ref = ref None in
      let ev_path : int list ref = ref [] in
      let world_at path =
        match (path, !ev_world) with
        (* Same node re-requested (the reduction layer probes the world
           for its fingerprint before deciding whether to explore): the
           spine already sits there. *)
        | p, Some w when p == !ev_path -> w
        | a :: tl, Some w when tl == !ev_path ->
            apply_action w a;
            ev_path := path;
            w
        | _ ->
            Option.iter Sim.dispose !ev_world;
            let w = Sim.run_schedule prog [] in
            List.iter (apply_action w) (List.rev path);
            ev_world := Some w;
            ev_path := path;
            w
      in
      let node_data path depth crashed key parent =
        match Hashtbl.find_opt cache key with
        | Some info ->
            incr cache_hits;
            (match lane with Some l -> Prof.hit l | None -> ());
            tick_time ();
            info
        | None ->
            poll ();
            incr nodes;
            bump_global ();
            if !nodes > max_nodes then stop Budget_nodes;
            (match budget_ms with
            | Some ms when Obs.now_ns () - t0 > ms * 1_000_000 -> stop Budget_wall
            | _ -> ());
            (match budget_heap_mb with
            | Some mb when heap_mb_now () > mb -> stop Budget_heap
            | _ -> ());
            (match interrupt with Some f when f () -> stop Budget_interrupt | _ -> ());
            tick ();
            tick_time ();
            (match lane with Some l -> Prof.fresh l ~depth | None -> ());
            let w = world_at path in
            let info =
              match parent with Some pi -> extend_info pi w | None -> info_of_world w
            in
            if depth mod stride = 0 then begin
              match lane with
              | None -> cross_check info w
              | Some l ->
                  let s = Obs.now_ns () in
                  cross_check info w;
                  Prof.cross_checked l ~start_ns:s ~stop_ns:(Obs.now_ns ())
            end;
            (* Coverage is passive: one trace scan per fresh node, and
               nothing it records feeds back into exploration. *)
            (match cov with
            | Some sh ->
                let branching =
                  match max_depth with
                  | Some d when depth >= d -> 0
                  | _ -> List.length (children info ~crashed)
                in
                Coverage.observe_node sh ~depth ~branching (Sim.trace w)
            | None -> ());
            Hashtbl.add cache key info;
            info
      in
      (* Did the preempt bound drop an enabled child anywhere?  A
         successful game then only covers the restricted tree. *)
      let pruned = ref false in
      (* Candidate-survival memo (--reduce): the solve result is a
         function of the node's commutation class (trace-equivalent
         prefixes have identical record arrays and enabled sets, hence
         isomorphic future subtrees), its depth, its preemption-switch
         count, its crashed set and the inherited linearization — so one
         entry per (column, class fingerprint, depth, switches, crashed,
         lin) answers every twin.  The crashed set is not implied by the
         fingerprint: a crash appends no trace event, yet it shrinks the
         enabled set and spends the branch's crash budget.  Only
         committed results land here: a budget trip or a refutation
         unwinds as an exception and stores nothing.  The
         leading column byte keeps a shared table partitioned exactly
         like the per-column engines', so sequential and per-column runs
         explore (and count) identically. *)
      let memo : (char * int * int * int * int list * linearization, bool) Hashtbl.t option =
        if reduce then Some (Hashtbl.create 1024) else None
      in
      (* [path] is kept reversed for cheap extension; [depth] is its
         length; [switches] the preemptions charged so far; [crashed] the
         processes crashed along it, sorted; [key] its packed cache key;
         [parent] the parent node's evaluated state (None only at the
         engine's entry node). *)
      let rec solve path depth switches crashed key parent (lin : linearization) =
        if depth > !max_frontier then max_frontier := depth;
        match memo with
        | Some m when depth > 0 -> (
            (* Probe the memo BEFORE registering the node: computing the
               child's fingerprint costs one [Sim.step] along the spine
               (or a node-cache lookup), and a hit answers the whole
               subtree — the pruned node is never counted, polled,
               cross-checked or cached, exactly as if the sleep set had
               suppressed the transition. *)
            let fp =
              match Hashtbl.find_opt cache key with
              | Some info -> info.fp
              | None -> (
                  let w = world_at path in
                  match parent with
                  | Some pi -> Reduct.fp_feed_list pi.fp (Sim.events_from w ~from:pi.trace_len)
                  | None -> Reduct.fp_feed_list Reduct.fp_empty (Sim.trace w))
            in
            let mkey = (key.[0], Reduct.fp_value fp, depth, switches, crashed, lin) in
            match Hashtbl.find_opt m mkey with
            | Some res when not reduce_check ->
                (match lane with Some l -> Prof.prune l | None -> ());
                if not res then last_fail := Prof.Kill_pruned;
                res
            | Some res ->
                (* Debug cross-validation: re-explore the twin subtree
                   and insist commuting steps really did yield an
                   isomorphic (same-verdict) subtree. *)
                let info = node_data path depth crashed key parent in
                let res' = solve_node info path depth switches crashed key lin in
                if res' <> res then
                  invalid_arg
                    "Lincheck: reduction cross-check failed — commutation-equivalent subtrees \
                     disagree";
                res'
            | None ->
                let info = node_data path depth crashed key parent in
                let res = solve_node info path depth switches crashed key lin in
                Hashtbl.replace m mkey res;
                res)
        | _ ->
            let info = node_data path depth crashed key parent in
            solve_node info path depth switches crashed key lin
      and solve_node info path depth switches crashed key (lin : linearization) =
        let children =
          match max_depth with Some d when depth >= d -> [] | _ -> children info ~crashed
        in
        (* Conservative preemption bound: past [preempt_bound] switches
           only the currently scheduled process may continue (while it
           stays enabled).  Dropping children of a ∀-quantified game node
           preserves refutations — every explored node is a real node —
           and a fully successful game degrades to [Budget_preempt]. *)
        let children =
          match preempt_bound with
          | Some b when switches >= b -> (
              match path with
              | lastp :: _ when List.mem lastp children ->
                  if List.exists (fun p -> p <> lastp) children then pruned := true;
                  [ lastp ]
              | _ -> children)
          | _ -> children
        in
        match validate_over info.rec_arr lin with
        | None ->
            incr validate_failures;
            last_fail := Prof.Kill_mismatch;
            false
        | Some states -> (
            match extensions_over info.rec_arr info.pred info.completed_mask lin states with
            | [] ->
                (* No valid linearization extends the parent's choice.  If
                   even the empty prefix admits none, the execution itself is
                   not linearizable. *)
                incr dead_ends;
                if not (root_linearizable info) then
                  raise (Found_not_linearizable (List.rev path));
                if depth > !wit_len then begin
                  wit_len := depth;
                  wit_log := (depth, List.rev path) :: !wit_log
                end;
                last_fail := Prof.Kill_dead_end;
                false
            | candidates ->
                cand_generated := !cand_generated + List.length candidates;
                if children = [] then true
                else
                  let lastp_enabled =
                    match path with lastp :: _ -> List.mem lastp info.enabled | [] -> false
                  in
                  let kids =
                    List.map
                      (fun p ->
                        let sw =
                          match path with
                          | lastp :: _ when p <> lastp && lastp_enabled -> switches + 1
                          | _ -> switches
                        in
                        (p, sw, key ^ String.make 1 (Char.unsafe_chr p)))
                      children
                  in
                  (* [List.exists], unrolled to count refuted candidates. *)
                  let rec try_candidates = function
                    | [] ->
                        (* every candidate died at some child: the caller's
                           candidate is refuted by its futures *)
                        last_fail := Prof.Kill_futures;
                        false
                    | cand :: rest ->
                        if
                          List.for_all
                            (fun (p, sw, k) ->
                              solve (p :: path) (depth + 1) sw (crashed_after p crashed) k
                                (Some info) cand)
                            kids
                        then true
                        else begin
                          incr cand_killed;
                          (match lane with Some l -> Prof.kill l !last_fail | None -> ());
                          try_candidates rest
                        end
                  in
                  try_candidates candidates)
      in
      {
        en_nodes = nodes;
        en_hits = cache_hits;
        en_frontier = max_frontier;
        en_cand = cand_generated;
        en_killed = cand_killed;
        en_dead = dead_ends;
        en_vfail = validate_failures;
        en_wit = wit_log;
        en_tripped = tripped;
        en_pruned = pruned;
        en_solve = solve;
        en_dispose =
          (fun () ->
            Option.iter Sim.dispose !ev_world;
            ev_world := None);
      }
    in
    let mk_stats ~nodes ~hits ~frontier ~cand ~killed ~dead ~vfail =
      {
        nodes;
        cache_hits = hits;
        max_frontier_depth = frontier;
        candidates_generated = cand;
        candidates_killed = killed;
        dead_ends = dead;
        validate_failures = vfail;
        elapsed_ns = Obs.now_ns () - t0;
      }
    in
    let trace_final st =
      match tracer with
      | Some tr ->
          let ts_us = float_of_int st.elapsed_ns /. 1e3 in
          Obs_trace.counter tr ~cat:"lincheck" ~ts_us "nodes" (float_of_int st.nodes);
          Obs_trace.complete tr ~cat:"lincheck" ~ts_us:0. ~dur_us:ts_us "check_strong"
      | None -> ()
    in
    let run_sequential () =
      let on_tick =
        match (on_progress, tracer) with
        | None, None -> None
        | _ ->
            Some
              (fun ~nodes ~frontier ->
                let elapsed_ns = Obs.now_ns () - t0 in
                (match on_progress with Some f -> f ~nodes ~elapsed_ns | None -> ());
                match tracer with
                | Some tr ->
                    let ts_us = float_of_int elapsed_ns /. 1e3 in
                    Obs_trace.counter tr ~cat:"lincheck" ~ts_us "nodes" (float_of_int nodes);
                    Obs_trace.counter tr ~cat:"lincheck" ~ts_us "max_frontier_depth"
                      (float_of_int frontier)
                | None -> ())
      in
      let lane = lane_for 0 in
      let eng = new_engine ~on_tick ~poll:ignore ~lane ~cov:(cov_for 0) ~bump_global:ignore () in
      (match lane with Some l -> Prof.begin_span l Prof.Solve () | None -> ());
      let verdict =
        match eng.en_solve [] 0 0 [] "" None [] with
        | true ->
            if !(eng.en_pruned) then
              Out_of_budget { nodes = !(eng.en_nodes); reason = Budget_preempt }
            else Strongly_linearizable { nodes = !(eng.en_nodes) }
        | false ->
            let witness = match !(eng.en_wit) with [] -> [] | (_, w) :: _ -> w in
            Not_strongly_linearizable { witness; nodes = !(eng.en_nodes) }
        | exception Found_not_linearizable schedule -> Not_linearizable { schedule }
        | exception Budget_exhausted ->
            (match lane with Some l -> Prof.kill l Prof.Kill_budget | None -> ());
            Out_of_budget { nodes = !(eng.en_nodes); reason = !(eng.en_tripped) }
      in
      eng.en_dispose ();
      (match lane with Some l -> Prof.end_span l | None -> ());
      let st =
        mk_stats ~nodes:!(eng.en_nodes) ~hits:!(eng.en_hits) ~frontier:!(eng.en_frontier)
          ~cand:!(eng.en_cand) ~killed:!(eng.en_killed) ~dead:!(eng.en_dead)
          ~vfail:!(eng.en_vfail)
      in
      trace_final st;
      (verdict, st)
    in
    (* Parallel solving.  The root node's history is empty, so its only
       minimal extension is the empty linearization: the game reduces to
       "every top-level subtree must succeed with lin = []", and those
       subtrees — one per root move: each enabled process stepped, then
       each crashed when crashes are allowed — are the parallel columns.  Their schedule prefixes are disjoint, so each worker
       engine's cache and counters reproduce exactly the slice of the
       sequential run that falls inside its column; the merge walks the
       columns in sequential order and stops where the one-engine run
       would have stopped, making verdict, witness and node counts
       independent of [jobs].  Heartbeats aggregate across workers: every
       engine bumps one shared atomic per fresh node and worker 0's
       engine emits the beat (on its own node/time cadence) reading that
       total — thread-safe, and zero-cost when nobody listens.  Any
       budget trip in the walked prefix falls back to an actual
       sequential run: budgeted work is bounded, and only the sequential
       engine can say precisely where it stops. *)
    let run_parallel ~nworkers () =
      let trip reason =
        let st = mk_stats ~nodes:1 ~hits:0 ~frontier:0 ~cand:0 ~killed:0 ~dead:0 ~vfail:0 in
        trace_final st;
        (Out_of_budget { nodes = 1; reason }, st)
      in
      if max_nodes < 1 then trip Budget_nodes
      else if
        match budget_ms with Some ms -> Obs.now_ns () - t0 > ms * 1_000_000 | None -> false
      then trip Budget_wall
      else if match budget_heap_mb with Some mb -> heap_mb_now () > mb | None -> false then
        trip Budget_heap
      else if match interrupt with Some f -> f () | None -> false then trip Budget_interrupt
      else begin
        (* Root accounting, exactly as the sequential engine does it:
           node 1, anchored (depth 0), one generated candidate. *)
        let w0 = Sim.run_schedule prog [] in
        let root_info = info_of_world w0 in
        cross_check root_info w0;
        let columns =
          match max_depth with Some d when d <= 0 -> [] | _ -> children root_info ~crashed:[]
        in
        (* The root node is evaluated here, not in any worker column;
           observe it on shard 0 (as the merge lane does for profiling). *)
        (match cov_for 0 with
        | Some sh -> Coverage.observe_node sh ~depth:0 ~branching:(List.length columns) (Sim.trace w0)
        | None -> ());
        Sim.dispose w0;
        if columns = [] then begin
          let st = mk_stats ~nodes:1 ~hits:0 ~frontier:0 ~cand:1 ~killed:0 ~dead:0 ~vfail:0 in
          trace_final st;
          (Strongly_linearizable { nodes = 1 }, st)
        end
        else begin
          let cols = Array.of_list columns in
          let ncols = Array.length cols in
          (* Aggregated heartbeat: all engines bump this (root already
             counted, matching the merge's accounting); worker 0 reads
             it when its own cadence fires. *)
          let want_ticks = on_progress <> None || tracer <> None in
          let global_nodes = Atomic.make 1 in
          let bump_global = if want_ticks then fun () -> Atomic.incr global_nodes else ignore in
          let par_on_tick =
            if not want_ticks then None
            else
              Some
                (fun ~nodes:_ ~frontier ->
                  let nodes = Atomic.get global_nodes in
                  let elapsed_ns = Obs.now_ns () - t0 in
                  (match on_progress with Some f -> f ~nodes ~elapsed_ns | None -> ());
                  match tracer with
                  | Some tr ->
                      let ts_us = float_of_int elapsed_ns /. 1e3 in
                      Obs_trace.counter tr ~cat:"lincheck" ~ts_us "nodes" (float_of_int nodes);
                      Obs_trace.counter tr ~cat:"lincheck" ~ts_us "max_frontier_depth"
                        (float_of_int frontier)
                  | None -> ())
          in
          (* Earliest column at which the sequential walk stops (failed
             candidate, refutation, or budget trip): columns after it are
             irrelevant, so workers abandon them. *)
          let min_stop = Atomic.make max_int in
          let note_stop c =
            let rec go () =
              let cur = Atomic.get min_stop in
              if c < cur && not (Atomic.compare_and_set min_stop cur c) then go ()
            in
            go ()
          in
          let results : col_result option array = Array.make ncols None in
          (* Checkpoint bookkeeping: the cumulative column list, emitted
             (sorted) after every completed column.  The list is updated
             under a lock; the caller's [cp_emit] runs outside it so a
             raising emitter (serve's fault injection) cannot wedge the
             other workers. *)
          let ck_lock = Mutex.create () in
          let ck_cols =
            ref
              (match checkpointing with
              | Some { cp_resume = Some r; _ } ->
                  List.filter (fun cc -> cc.col_index >= 0 && cc.col_index < ncols) r.ck_columns
              | _ -> [])
          in
          let emit_col cp (cc : col_checkpoint) =
            Mutex.lock ck_lock;
            ck_cols :=
              List.sort
                (fun a b -> compare a.col_index b.col_index)
                (cc :: List.filter (fun c -> c.col_index <> cc.col_index) !ck_cols);
            let snapshot = !ck_cols in
            Mutex.unlock ck_lock;
            cp.cp_emit { ck_config = cp.cp_config; ck_columns = snapshot }
          in
          (* Resume: recorded columns are final — pre-fill their results
             so no worker re-solves them, and propagate any recorded
             stopping column so later columns abandon immediately. *)
          (match checkpointing with
          | Some { cp_resume = Some r; _ } ->
              List.iter
                (fun (cc : col_checkpoint) ->
                  if cc.col_index >= 0 && cc.col_index < ncols then begin
                    results.(cc.col_index) <- Some (col_result_of_checkpoint cc);
                    match cc.col_outcome with
                    | "failed" | "not-lin" -> note_stop cc.col_index
                    | _ -> ()
                  end)
                r.ck_columns
          | _ -> ());
          let abandoned =
            {
              cr_outcome = Col_abandoned;
              cr_nodes = 0;
              cr_hits = 0;
              cr_frontier = 0;
              cr_cand = 0;
              cr_killed = 0;
              cr_dead = 0;
              cr_vfail = 0;
              cr_wit = [];
              cr_pruned = false;
            }
          in
          let run_column ~lane ~cov ~on_tick c =
            if Atomic.get min_stop < c then begin
              (match lane with
              | Some l ->
                  Prof.note_column l ~col:c ~proc:cols.(c) ~nodes:0 ~outcome:"abandoned"
              | None -> ());
              results.(c) <- Some abandoned
            end
            else begin
              let eng =
                new_engine ~on_tick
                  ~poll:(fun () -> if Atomic.get min_stop < c then raise Abandoned)
                  ~lane ~cov ~bump_global ()
              in
              let p = cols.(c) in
              (match lane with
              | Some l -> Prof.begin_span l Prof.Solve ~label:(Printf.sprintf "col %d" c) ()
              | None -> ());
              let outcome =
                match
                  eng.en_solve [ p ] 1 0 (crashed_after p [])
                    (String.make 1 (Char.unsafe_chr p))
                    (Some root_info) []
                with
                | true -> Col_ok true
                | false ->
                    note_stop c;
                    Col_ok false
                | exception Found_not_linearizable schedule ->
                    note_stop c;
                    Col_not_lin schedule
                | exception Budget_exhausted ->
                    note_stop c;
                    (match lane with Some l -> Prof.kill l Prof.Kill_budget | None -> ());
                    Col_tripped !(eng.en_tripped)
                | exception Abandoned -> Col_abandoned
              in
              eng.en_dispose ();
              (match lane with
              | Some l ->
                  Prof.end_span l;
                  let tag =
                    match outcome with
                    | Col_ok true -> "ok"
                    | Col_ok false -> "failed"
                    | Col_not_lin _ -> "not-lin"
                    | Col_tripped _ -> "budget"
                    | Col_abandoned -> "abandoned"
                  in
                  Prof.note_column l ~col:c ~proc:p ~nodes:!(eng.en_nodes) ~outcome:tag
              | None -> ());
              results.(c) <-
                Some
                  {
                    cr_outcome = outcome;
                    cr_nodes = !(eng.en_nodes);
                    cr_hits = !(eng.en_hits);
                    cr_frontier = !(eng.en_frontier);
                    cr_cand = !(eng.en_cand);
                    cr_killed = !(eng.en_killed);
                    cr_dead = !(eng.en_dead);
                    cr_vfail = !(eng.en_vfail);
                    cr_wit = List.rev !(eng.en_wit);
                    cr_pruned = !(eng.en_pruned);
                  };
              (* Completed columns (ok / failed / not-lin) are final facts
                 about the tree and go into the checkpoint; tripped or
                 abandoned columns are not resumable state. *)
              match checkpointing with
              | Some cp -> (
                  match outcome with
                  | Col_tripped _ | Col_abandoned -> ()
                  | _ ->
                      let tag, sched =
                        match outcome with
                        | Col_ok true -> ("ok", [])
                        | Col_ok false -> ("failed", [])
                        | Col_not_lin s -> ("not-lin", s)
                        | Col_tripped _ | Col_abandoned -> assert false
                      in
                      emit_col cp
                        {
                          col_index = c;
                          col_outcome = tag;
                          col_schedule = sched;
                          col_nodes = !(eng.en_nodes);
                          col_hits = !(eng.en_hits);
                          col_frontier = !(eng.en_frontier);
                          col_cand = !(eng.en_cand);
                          col_killed = !(eng.en_killed);
                          col_dead = !(eng.en_dead);
                          col_vfail = !(eng.en_vfail);
                          col_wit = List.rev !(eng.en_wit);
                          col_pruned = !(eng.en_pruned);
                        })
              | None -> ()
            end
          in
          (* Column dispatch: one engine per column, columns handed out
             by [parallel_for]'s shared cursor.  Only worker 0 beats —
             heartbeat callbacks need not be thread-safe — reading the
             shared total every engine bumps per fresh node.  A column
             that raises (a checker bug, or a raising [cp_emit]) abandons
             the other in-flight columns at their next fresh node;
             [parallel_for] joins every domain and re-raises it. *)
          Steal_pool.parallel_for ~workers:nworkers ~n:ncols (fun ~worker c ->
              if results.(c) = None then
                try
                  run_column ~lane:(lane_for worker) ~cov:(cov_for worker)
                    ~on_tick:(if worker = 0 then par_on_tick else None)
                    c
                with e ->
                  note_stop (-1);
                  raise e);
          (* Deterministic merge: sequential column order, strictly-deeper
             witness rule, stop at the first non-succeeding column. *)
          let acc_nodes = ref 1 in
          let acc_hits = ref 0 in
          let acc_frontier = ref 0 in
          let acc_cand = ref 1 in
          let acc_killed = ref 0 in
          let acc_dead = ref 0 in
          let acc_vfail = ref 0 in
          let acc_pruned = ref false in
          let witness = ref [] in
          let wit_len = ref 0 in
          let finish_par verdict =
            let st =
              mk_stats ~nodes:!acc_nodes ~hits:!acc_hits ~frontier:!acc_frontier
                ~cand:!acc_cand ~killed:!acc_killed ~dead:!acc_dead ~vfail:!acc_vfail
            in
            trace_final st;
            (verdict, st)
          in
          let exception Fallback in
          let exception Done of verdict in
          (* With checkpointing active a tripped budget must not discard
             the completed columns by re-running sequentially: degrade to
             [Out_of_budget] with the merged partial stats instead
             (column-granular accounting, documented in the mli). *)
          let exception Trip of budget_reason in
          let ckpt = checkpointing <> None in
          let merge_lane = lane_for 0 in
          (* The root node is evaluated here, not in any worker column;
             attribute it to the merge lane so lane totals sum to the
             verdict's node count. *)
          (match merge_lane with Some l -> Prof.fresh l ~depth:0 | None -> ());
          (match merge_lane with Some l -> Prof.begin_span l Prof.Merge () | None -> ());
          let end_merge () = match merge_lane with Some l -> Prof.end_span l | None -> () in
          try
            for c = 0 to ncols - 1 do
              let r = match results.(c) with Some r -> r | None -> raise Fallback in
              (* The walk only reaches abandoned columns if a worker raced
                 a stale [min_stop]; recover with the sequential engine. *)
              (match r.cr_outcome with Col_abandoned -> raise Fallback | _ -> ());
              if (not ckpt) && !acc_nodes + r.cr_nodes > max_nodes then raise Fallback;
              acc_nodes := !acc_nodes + r.cr_nodes;
              acc_hits := !acc_hits + r.cr_hits;
              if r.cr_frontier > !acc_frontier then acc_frontier := r.cr_frontier;
              acc_cand := !acc_cand + r.cr_cand;
              acc_killed := !acc_killed + r.cr_killed;
              acc_dead := !acc_dead + r.cr_dead;
              acc_vfail := !acc_vfail + r.cr_vfail;
              if r.cr_pruned then acc_pruned := true;
              List.iter
                (fun (d, pth) ->
                  if d > !wit_len then begin
                    wit_len := d;
                    witness := pth
                  end)
                r.cr_wit;
              (match r.cr_outcome with
              | Col_ok true -> ()
              | Col_ok false ->
                  incr acc_killed;
                  raise
                    (Done (Not_strongly_linearizable { witness = !witness; nodes = !acc_nodes }))
              | Col_not_lin schedule -> raise (Done (Not_linearizable { schedule }))
              | Col_tripped reason -> if ckpt then raise (Trip reason) else raise Fallback
              | Col_abandoned -> assert false);
              if ckpt && !acc_nodes > max_nodes then raise (Trip Budget_nodes)
            done;
            end_merge ();
            finish_par
              (if !acc_pruned then Out_of_budget { nodes = !acc_nodes; reason = Budget_preempt }
               else Strongly_linearizable { nodes = !acc_nodes })
          with
          | Done v ->
              end_merge ();
              finish_par v
          | Trip reason ->
              end_merge ();
              finish_par (Out_of_budget { nodes = !acc_nodes; reason })
          | Fallback ->
              end_merge ();
              run_sequential ()
        end
      end
    in
    (* Checkpointing forces the column engine even at [jobs = 1]: columns
       are the resumable unit, and column determinism makes the routed
       run's verdict and stats identical to the plain one.  The worker
       count is capped at the hardware parallelism — domains beyond the
       core count only time-slice the same cores and slow the solve down
       (and column determinism makes the cap invisible in the output). *)
    let eff = Steal_pool.effective_workers ~requested:jobs in
    if eff > 1 || checkpointing <> None then run_parallel ~nworkers:eff ()
    else run_sequential ()

  let check_strong ?max_nodes ?max_depth prog =
    fst (check_strong_stats ?max_nodes ?max_depth prog)

  (* Exposed (under [Internal]) for the witness forensics in
     [Witness.Make] (which replays the enumerator on small certificate
     subtrees) and for the incremental-evaluation tests.  Not part of the
     checking API proper. *)
  module Internal = struct
    let validate_prefix = validate_prefix

    let extensions = extensions

    type nonrec node_info = node_info

    let info_of_world = info_of_world

    let extend_info = extend_info

    let cross_check = cross_check
  end

  let verdict_fields = function
    | Strongly_linearizable { nodes } ->
        [ ("verdict", Obs_json.String "strongly_linearizable"); ("nodes", Obs_json.Int nodes) ]
    | Not_linearizable { schedule } ->
        [
          ("verdict", Obs_json.String "not_linearizable");
          ("schedule", Obs_json.List (List.map (fun p -> Obs_json.Int p) schedule));
        ]
    | Not_strongly_linearizable { witness; nodes } ->
        [
          ("verdict", Obs_json.String "not_strongly_linearizable");
          ("witness", Obs_json.List (List.map (fun p -> Obs_json.Int p) witness));
          ("nodes", Obs_json.Int nodes);
        ]
    | Out_of_budget { nodes; reason = Budget_nodes } ->
        (* Pinned shape predating [budget_reason]; adding a field here
           would break the byte-identical-output contract for node-budget
           runs. *)
        [ ("verdict", Obs_json.String "out_of_budget"); ("nodes", Obs_json.Int nodes) ]
    | Out_of_budget { nodes; reason } ->
        [
          ("verdict", Obs_json.String "out_of_budget");
          ("nodes", Obs_json.Int nodes);
          ("reason", Obs_json.String (budget_reason_tag reason));
        ]
end
