(* Counterexample forensics: structured, replayable witness artifacts
   for the strong-linearizability checker's refutations.

   A refutation verdict names a single schedule (the deepest dead end of
   the game); on its own that is evidence, not an explanation.  This
   module turns it into a self-certifying {e certificate subtree}: a
   shared schedule prefix (the {e branch}) plus a small set of
   continuation schedules (the {e futures}) such that no prefix-closed
   assignment of linearizations exists on that little tree.  Because the
   subtree embeds in the full execution tree, its refutation carries
   over — replaying the certificate (a handful of schedules) re-proves
   the verdict without re-running the exploration.

   The pipeline is: [extract] builds a certificate from the verdict's
   schedule, [shrink] greedily minimizes it (dropping futures and steps,
   hoisting common future prefixes into the branch, reducing context
   switches) re-checking every candidate with the same mini-solver, and
   [conflict_of] computes the spec-level reason — typically one
   operation whose linearization is forced before the branch point by
   one future and after it by another.  [to_json] serializes the result
   as a versioned [slin-witness/v1] document; [parse]/[replay] load one
   back and verify the verdict reproduces (the `slin explain` path).

   The mini-solver reuses the checker's own enumeration
   ([Lincheck.Make(S).Internal]), so a certificate accepted here fails
   for exactly the reason the full game failed. *)

(* [Livelock] certificates come from the lock-freedom checker
   (Slin_adversary): the branch is a stem schedule and the single future
   is a cycle that keeps replaying with an identical event signature and
   no operation completing — a lasso through the schedule graph. *)
type kind = Not_linearizable | Not_strongly_linearizable | Livelock

let kind_tag = function
  | Not_linearizable -> "not_linearizable"
  | Not_strongly_linearizable -> "not_strongly_linearizable"
  | Livelock -> "livelock"

let kind_of_tag = function
  | "not_linearizable" -> Some Not_linearizable
  | "not_strongly_linearizable" -> Some Not_strongly_linearizable
  | "livelock" -> Some Livelock
  | _ -> None

type shape = { kind : kind; branch : int list; futures : int list list }

(* Future schedules are stored relative to the branch; the certificate
   tree is the union of the full schedules (futures sharing a prefix
   share the corresponding nodes). *)
let schedules s = List.map (fun f -> s.branch @ f) s.futures

let size s =
  List.length s.branch + List.fold_left (fun a f -> a + List.length f) 0 s.futures

let switches sched =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (if a = b then acc else acc + 1) rest
    | _ -> acc
  in
  go 0 sched

let total_switches s = List.fold_left (fun a sched -> a + switches sched) 0 (schedules s)

(* --- conflicts -------------------------------------------------------- *)

(* A {e choice} for an operation at the branch point: the response it is
   committed to in the branch linearization, or [None] when its
   linearization is deferred past the branch. *)
type choice = string option

type conflict =
  | Placement of { op : string; forced_by : int; excluded_by : int }
  | Response of {
      op : string;
      forced_by : int;
      resp_a : string;
      excluded_by : int;
      resp_b : string;
    }
  | Commitment of {
      op : string;
      future_a : int;
      choices_a : choice list;
      future_b : int;
      choices_b : choice list;
    }
  | Generic of string

let choices_str (choices : choice list) =
  let resps = List.filter_map Fun.id choices in
  let deferred = List.mem None choices in
  match (resps, deferred) with
  | [], _ -> "deferred past the branch point"
  | rs, false -> "committed to " ^ String.concat " or " rs
  | rs, true -> "committed to " ^ String.concat " or " rs ^ ", or deferred past the branch point"

let conflict_description = function
  | Placement { op; forced_by; excluded_by } ->
      Printf.sprintf
        "operation %s must be linearized at or before the branch point for future %d to stay \
         linearizable, but strictly after it for future %d — no prefix-closed choice exists at \
         the branch"
        op forced_by excluded_by
  | Response { op; forced_by; resp_a; excluded_by; resp_b } ->
      Printf.sprintf
        "operation %s must be committed to response %s for future %d but to %s for future %d — \
         no prefix-closed choice exists at the branch"
        op resp_a forced_by resp_b excluded_by
  | Commitment { op; future_a; choices_a; future_b; choices_b } ->
      Printf.sprintf
        "operation %s admits no common choice at the branch point: future %d needs it %s, while \
         future %d needs it %s"
        op future_a (choices_str choices_a) future_b (choices_str choices_b)
  | Generic msg -> msg

let choices_json choices =
  Obs_json.List
    (List.map
       (function None -> Obs_json.Null | Some r -> Obs_json.String r)
       choices)

let conflict_fields c =
  let common = [ ("description", Obs_json.String (conflict_description c)) ] in
  match c with
  | Placement { op; forced_by; excluded_by } ->
      [
        ("type", Obs_json.String "placement");
        ("op", Obs_json.String op);
        ("forced_by_future", Obs_json.Int forced_by);
        ("excluded_by_future", Obs_json.Int excluded_by);
      ]
      @ common
  | Response { op; forced_by; resp_a; excluded_by; resp_b } ->
      [
        ("type", Obs_json.String "response");
        ("op", Obs_json.String op);
        ("forced_by_future", Obs_json.Int forced_by);
        ("resp_a", Obs_json.String resp_a);
        ("excluded_by_future", Obs_json.Int excluded_by);
        ("resp_b", Obs_json.String resp_b);
      ]
      @ common
  | Commitment { op; future_a; choices_a; future_b; choices_b } ->
      [
        ("type", Obs_json.String "commitment");
        ("op", Obs_json.String op);
        ("future_a", Obs_json.Int future_a);
        ("choices_a", choices_json choices_a);
        ("future_b", Obs_json.Int future_b);
        ("choices_b", choices_json choices_b);
      ]
      @ common
  | Generic _ -> ("type", Obs_json.String "generic") :: common

(* --- the serialized artifact ------------------------------------------ *)

let schema_version = "slin-witness/v1"

type recorded_op = { r_id : int; r_proc : int; r_op : string; r_resp : string option }

type recorded_future = { f_schedule : int list; f_history : recorded_op list }

type parsed = {
  p_object : string;
  p_spec : string;
  p_procs : int;
  p_kind : kind;
  p_branch : int list;
  p_futures : recorded_future list;
  p_conflict : conflict option;
  p_max_nodes : int option;
  p_max_depth : int option;
  p_nodes : int option;
  p_original_len : int;
  p_shrunk_len : int;
}

let shape_of_parsed p =
  { kind = p.p_kind; branch = p.p_branch; futures = List.map (fun f -> f.f_schedule) p.p_futures }

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let parse (json : Obs_json.t) : (parsed, string) result =
  let get k j = match Obs_json.member k j with Some v -> v | None -> bad "missing field %S" k in
  let opt k j = match Obs_json.member k j with Some Obs_json.Null | None -> None | Some v -> Some v in
  let gstr k j =
    match Obs_json.to_str (get k j) with Some s -> s | None -> bad "field %S: expected a string" k
  in
  let gint k j =
    match Obs_json.to_int (get k j) with Some i -> i | None -> bad "field %S: expected an int" k
  in
  let gints k j =
    match Obs_json.to_int_list (get k j) with
    | Some l -> l
    | None -> bad "field %S: expected a list of ints" k
  in
  let glist k j =
    match Obs_json.to_list (get k j) with Some l -> l | None -> bad "field %S: expected a list" k
  in
  let oint k j = Option.bind (opt k j) Obs_json.to_int in
  try
    let schema = gstr "schema" json in
    if schema <> schema_version then
      bad "unsupported witness schema %S (this build reads %S)" schema schema_version;
    let p_kind =
      let tag = gstr "kind" json in
      match kind_of_tag tag with Some k -> k | None -> bad "unknown witness kind %S" tag
    in
    let p_futures =
      glist "futures" json
      |> List.map (fun fj ->
             let f_history =
               glist "history" fj
               |> List.map (fun hj ->
                      {
                        r_id = gint "id" hj;
                        r_proc = gint "proc" hj;
                        r_op = gstr "op" hj;
                        r_resp = Option.bind (opt "resp" hj) Obs_json.to_str;
                      })
             in
             { f_schedule = gints "schedule" fj; f_history })
    in
    if p_futures = [] then bad "witness has no futures";
    let p_conflict =
      match opt "conflict" json with
      | None -> None
      | Some cj -> (
          match gstr "type" cj with
          | "placement" ->
              Some
                (Placement
                   {
                     op = gstr "op" cj;
                     forced_by = gint "forced_by_future" cj;
                     excluded_by = gint "excluded_by_future" cj;
                   })
          | "response" ->
              Some
                (Response
                   {
                     op = gstr "op" cj;
                     forced_by = gint "forced_by_future" cj;
                     resp_a = gstr "resp_a" cj;
                     excluded_by = gint "excluded_by_future" cj;
                     resp_b = gstr "resp_b" cj;
                   })
          | "commitment" ->
              let gchoices k j =
                glist k j
                |> List.map (function
                     | Obs_json.Null -> None
                     | v -> (
                         match Obs_json.to_str v with
                         | Some s -> Some s
                         | None -> bad "field %S: expected strings or nulls" k))
              in
              Some
                (Commitment
                   {
                     op = gstr "op" cj;
                     future_a = gint "future_a" cj;
                     choices_a = gchoices "choices_a" cj;
                     future_b = gint "future_b" cj;
                     choices_b = gchoices "choices_b" cj;
                   })
          | "generic" -> Some (Generic (gstr "description" cj))
          | t -> bad "unknown conflict type %S" t)
    in
    let check = opt "check" json in
    Ok
      {
        p_object = gstr "object" json;
        p_spec = gstr "spec" json;
        p_procs = gint "procs" json;
        p_kind;
        p_branch = gints "branch" json;
        p_futures;
        p_conflict;
        p_max_nodes = Option.bind check (oint "max_nodes");
        p_max_depth = Option.bind check (oint "max_depth");
        p_nodes = Option.bind check (oint "nodes");
        p_original_len = gint "original_len" json;
        p_shrunk_len = gint "shrunk_len" json;
      }
  with Bad msg -> Error msg

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Obs_json.of_string contents with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok json -> ( match parse json with Ok p -> Ok p | Error msg -> Error (path ^ ": " ^ msg)))

(* --- spec-dependent machinery ----------------------------------------- *)

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let take n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] l

module Make (S : Spec.S) = struct
  module L = Lincheck.Make (S)

  let op_str o = Format.asprintf "%a" S.pp_op o

  let resp_str r = Format.asprintf "%a" S.pp_resp r

  (* Linearizations compared by content: entry responses via their
     printed form, the same identification the checker's own candidate
     deduplication uses. *)
  let lin_key (lin : L.linearization) =
    List.map (fun (e : L.entry) -> (e.L.op_id, resp_str e.L.eresp)) lin

  let node_records prog sched =
    match Sim.run_schedule_result prog sched with
    | Error e -> Error e
    | Ok w ->
        Sim.dispose w;
        Ok (History.of_trace (Sim.trace w))

  let node_records_exn prog sched =
    match node_records prog sched with
    | Ok r -> r
    | Error e -> invalid_arg ("Witness: invalid schedule in certificate: " ^ e)

  (* ---------------- the mini-solver (certificate check) --------------- *)

  (* The certificate tree, nodes annotated with their replayed records. *)
  type tnode = { tid : int; records : (S.op, S.resp) History.op_record list; kids : tnode list }

  let build_tree prog shape : (tnode, string) result =
    let next = ref 0 in
    let rec build prefix_rev suffixes =
      match node_records prog (List.rev prefix_rev) with
      | Error e -> Error e
      | Ok records -> (
          (* Group continuations by first step, preserving first-appearance
             order, so futures sharing a prefix share tree nodes. *)
          let order = ref [] in
          let tbl = Hashtbl.create 4 in
          List.iter
            (fun sched ->
              match sched with
              | [] -> ()
              | h :: rest -> (
                  match Hashtbl.find_opt tbl h with
                  | None ->
                      order := h :: !order;
                      Hashtbl.add tbl h [ rest ]
                  | Some l -> Hashtbl.replace tbl h (rest :: l)))
            suffixes;
          let rec build_kids acc = function
            | [] -> Ok (List.rev acc)
            | h :: rest -> (
                match build (h :: prefix_rev) (List.rev (Hashtbl.find tbl h)) with
                | Error e -> Error e
                | Ok kid -> build_kids (kid :: acc) rest)
          in
          match build_kids [] (List.rev !order) with
          | Error e -> Error e
          | Ok kids ->
              let tid = !next in
              incr next;
              Ok { tid; records; kids })
    in
    build [] (schedules shape)

  (* Decide whether a prefix-closed assignment of linearizations exists
     on the certificate tree — the checker's game restricted to it.  The
     assignment at each node comes from [Internal.extensions] exactly as
     in the full solver, so refutation here is refutation there. *)
  let solvable root =
    let memo = Hashtbl.create 64 in
    let rec solve (n : tnode) (lin : L.linearization) =
      let key = (n.tid, lin_key lin) in
      match Hashtbl.find_opt memo key with
      | Some b -> b
      | None ->
          let b =
            match L.Internal.validate_prefix n.records lin with
            | None -> false
            | Some states -> (
                match L.Internal.extensions n.records lin states with
                | [] -> false
                | cands ->
                    n.kids = []
                    || List.exists (fun c -> List.for_all (fun k -> solve k c) n.kids) cands)
          in
          Hashtbl.add memo key b;
          b
    in
    solve root []

  (* ---------------- livelock (lasso) certificates ---------------------- *)

  (* Empirical lasso check: from the end of the stem, the cycle must
     replay [lasso_reps] times with an identical event signature each
     time and no operation completing, and some operation must still be
     pending afterwards.  For the deterministic implementations here
     this certifies the loop the lock-freedom checker explored; it is
     schedule-replay evidence, not an inductive state-equality proof. *)
  let lasso_reps = 4

  let event_sig = function
    | Trace.Invoke { proc; op } -> Printf.sprintf "i%d:%s" proc (op_str op)
    | Trace.Return { proc; resp } -> Printf.sprintf "r%d:%s" proc (resp_str resp)
    | Trace.Step { proc; obj; info; noop = _ } ->
        Printf.sprintf "s%d:%s%s" proc obj
          (match info with Some i -> ":" ^ i | None -> "")

  let check_livelock prog ~stem ~cycle : (bool, string) result =
    if cycle = [] then Error "a livelock witness needs a non-empty cycle"
    else
      match Sim.run_schedule_result prog stem with
      | Error e -> Error e
      | Ok w ->
          let prev = ref (List.length (Sim.trace w)) in
          (* One cycle replay: its event signatures and whether any
             operation returned, or [None] when a step was invalid
             (a process finished or crashed mid-cycle — no lasso). *)
          let cycle_sig () =
            match List.iter (fun p -> Sim.step w p) cycle with
            | () ->
                let tr = Sim.trace w in
                let events = drop !prev tr in
                prev := List.length tr;
                let returned =
                  List.exists (function Trace.Return _ -> true | _ -> false) events
                in
                Some (List.map event_sig events, returned)
            | exception Sim.Invalid_schedule _ -> None
          in
          let rec loops i reference =
            i >= lasso_reps
            ||
            match cycle_sig () with
            | None | Some (_, true) -> false
            | Some (s, false) -> (
                match reference with
                | None -> loops (i + 1) (Some s)
                | Some r -> r = s && loops (i + 1) reference)
          in
          let looping = loops 0 None in
          let pending =
            History.of_trace (Sim.trace w)
            |> List.exists (fun r -> not (History.is_complete r))
          in
          Ok (looping && pending)

  let refutes prog shape : (bool, string) result =
    match shape.kind with
    | Not_linearizable -> (
        match schedules shape with
        | [ sched ] -> (
            match Sim.run_schedule_result prog sched with
            | Error e -> Error e
            | Ok w ->
                Sim.dispose w;
                Ok (L.check_trace (Sim.trace w) = None))
        | _ -> Error "a not_linearizable witness must have exactly one future")
    | Not_strongly_linearizable -> (
        match build_tree prog shape with
        | Error e -> Error e
        | Ok root -> Ok (not (solvable root)))
    | Livelock -> (
        match shape.futures with
        | [ cycle ] -> check_livelock prog ~stem:shape.branch ~cycle
        | _ -> Error "a livelock witness must have exactly one future (the cycle)")

  (* ---------------- extraction ---------------------------------------- *)

  (* Linearizations assignable at the end of [branch] through the chain
     game from the root (each node's choice extending its parent's). *)
  let reach prog branch : L.linearization list option =
    let dedup lins =
      let seen = Hashtbl.create 16 in
      List.filter
        (fun l ->
          let k = lin_key l in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        lins
    in
    let expand records lins =
      dedup
        (List.concat_map
           (fun lin ->
             match L.Internal.validate_prefix records lin with
             | None -> []
             | Some states -> L.Internal.extensions records lin states)
           lins)
    in
    let rec go prefix_rev lins = function
      | [] -> Some lins
      | s :: rest -> (
          match node_records prog (List.rev (s :: prefix_rev)) with
          | Error _ -> None
          | Ok records -> go (s :: prefix_rev) (expand records lins) rest)
    in
    match node_records prog [] with
    | Error _ -> None
    | Ok records0 -> go [] (expand records0 [ [] ]) branch

  (* Records at every node of a future chain, by one replay per prefix. *)
  let chain_records prog branch future =
    let rec go prefix_rev acc = function
      | [] -> Some (Array.of_list (List.rev acc))
      | s :: rest -> (
          match node_records prog (List.rev (s :: prefix_rev)) with
          | Error _ -> None
          | Ok records -> go (s :: prefix_rev) (records :: acc) rest)
    in
    go (List.rev branch) [] future

  (* Which of [cands] (linearizations at the branch node) survive the
     chain game along [future]? *)
  let survivors rec_seq cands =
    let n = Array.length rec_seq in
    let memo = Hashtbl.create 64 in
    let rec go i lin =
      if i >= n then true
      else
        let key = (i, lin_key lin) in
        match Hashtbl.find_opt memo key with
        | Some b -> b
        | None ->
            let b =
              match L.Internal.validate_prefix rec_seq.(i) lin with
              | None -> false
              | Some states -> (
                  match L.Internal.extensions rec_seq.(i) lin states with
                  | [] -> false
                  | cs -> List.exists (fun c -> go (i + 1) c) cs)
            in
            Hashtbl.add memo key b;
            b
    in
    List.filter (fun c -> go 0 c) cands

  (* Re-run the solver's game recording the {e refutation evidence}: for
     every node/linearization the game visits and fails, the set of
     dead-end schedules that jointly kill all its candidate extensions
     (each candidate is killed at some child; the union of those kills,
     recursively, is an adversary strategy).  The traversal is the same
     recursion as [check_strong] — same node order, same budget — so it
     terminates exactly when the original check did.  Returns the
     evidence paths for the root, or [None] if the game is winnable (or
     the budget is exhausted, which cannot happen when the original
     check refuted within the same budget). *)
  exception Evidence_not_linearizable of int list

  let record_evidence ?(max_nodes = 200_000) ?max_depth prog : int list list option =
    let nodes = ref 0 in
    let cache : (int list, (S.op, S.resp) History.op_record list * int list) Hashtbl.t =
      Hashtbl.create 1024
    in
    let node_data path =
      match Hashtbl.find_opt cache path with
      | Some d -> d
      | None ->
          incr nodes;
          if !nodes > max_nodes then raise Lincheck.Budget_exhausted;
          let w = Sim.run_schedule prog (List.rev path) in
          let d = (History.of_trace (Sim.trace w), Sim.enabled w) in
          Sim.dispose w;
          Hashtbl.add cache path d;
          d
    in
    (* [None] = (node, lin) is winnable; [Some paths] = refuted, with the
       dead-end schedules witnessing it. *)
    let rec refute path depth (lin : L.linearization) : int list list option =
      let records, children = node_data path in
      let children = match max_depth with Some d when depth >= d -> [] | _ -> children in
      match L.Internal.validate_prefix records lin with
      | None -> Some [ List.rev path ]
      | Some states -> (
          match L.Internal.extensions records lin states with
          | [] ->
              if L.Internal.extensions records [] [ S.init ] = [] then
                raise (Evidence_not_linearizable (List.rev path));
              Some [ List.rev path ]
          | candidates ->
              if children = [] then None
              else
                let rec try_candidates acc = function
                  | [] -> Some acc
                  | cand :: rest ->
                      let rec find_kill = function
                        | [] -> None
                        | p :: ps -> (
                            match refute (p :: path) (depth + 1) cand with
                            | Some ev -> Some ev
                            | None -> find_kill ps)
                      in
                      (match find_kill children with
                      | None -> None
                      | Some ev -> try_candidates (List.rev_append ev acc) rest)
                in
                try_candidates [] candidates)
    in
    match refute [] 0 [] with
    | exception Lincheck.Budget_exhausted -> None
    | exception Evidence_not_linearizable _ -> None
    | r -> r

  let rec common_prefix a b =
    match (a, b) with
    | x :: a', y :: b' when x = y -> x :: common_prefix a' b'
    | _ -> []

  (* Prune the evidence broom before shrinking: keep only futures needed
     to kill every linearization assignable at the branch (greedy set
     cover over the per-future survivor analysis).  Heuristic only — the
     result is verified with [refutes] and the full future set is kept
     when the pruned one does not certify. *)
  let prune_futures prog branch futures =
    match futures with
    | [] | [ _ ] -> futures
    | _ -> (
        match reach prog branch with
        | None | Some [] -> futures
        | Some cands ->
            let keys_of lins = List.map lin_key lins in
            let with_kills =
              List.map
                (fun f ->
                  let kills =
                    match chain_records prog branch f with
                    | None -> []
                    | Some rec_seq ->
                        let surviving = keys_of (survivors rec_seq cands) in
                        List.filter
                          (fun k -> not (List.mem k surviving))
                          (keys_of cands)
                  in
                  (f, kills))
                futures
            in
            let rec cover alive chosen avail =
              if alive = [] then Some (List.rev chosen)
              else
                let scored =
                  List.map
                    (fun (f, kills) ->
                      (List.length (List.filter (fun k -> List.mem k kills) alive), f, kills))
                    avail
                in
                match List.sort compare scored |> List.rev with
                | (best, f, kills) :: _ when best > 0 ->
                    cover
                      (List.filter (fun k -> not (List.mem k kills)) alive)
                      (f :: chosen)
                      (List.filter (fun (g, _) -> g <> f) avail)
                | _ -> None
            in
            (match cover (keys_of cands) [] with_kills with
            | Some chosen
              when (match refutes prog { kind = Not_strongly_linearizable; branch; futures = chosen }
                    with
                   | Ok true -> true
                   | _ -> false) ->
                chosen
            | _ -> futures))

  (* Build a certificate from a refutation verdict.  For a
     [Not_linearizable] verdict the single schedule is the certificate.
     For [Not_strongly_linearizable] the game is re-run with evidence
     recording; the certificate tree is the union of the recorded
     dead-end schedules, presented as their longest common prefix (the
     branch) plus the diverging suffixes (the futures). *)
  let extract ?max_nodes ?max_depth prog ~kind ~(schedule : int list) : shape option =
    match kind with
    | Livelock ->
        (* Livelock certificates carry a stem/cycle split that a single
           verdict schedule cannot express; Slin_adversary builds the
           shape directly and goes straight to [shrink]/[to_json]. *)
        ignore schedule;
        None
    | Not_linearizable ->
        let s = { kind; branch = []; futures = [ schedule ] } in
        (match refutes prog s with Ok true -> Some s | _ -> None)
    | Not_strongly_linearizable -> (
        match record_evidence ?max_nodes ?max_depth prog with
        | None | Some [] -> None
        | Some paths ->
            let paths = List.sort_uniq compare paths in
            let branch =
              match paths with p :: rest -> List.fold_left common_prefix p rest | [] -> []
            in
            let b = List.length branch in
            let futures = List.sort_uniq compare (List.map (fun p -> drop b p) paths) in
            let branch, futures =
              match List.filter (fun f -> f <> []) futures with
              | [] ->
                  (* every path equals the branch: certify the chain alone *)
                  (take (b - 1) branch, [ drop (b - 1) branch ])
              | fs -> (branch, fs)
            in
            let futures = prune_futures prog branch futures in
            let s = { kind; branch; futures } in
            (match refutes prog s with Ok true -> Some s | _ -> None))

  (* ---------------- shrinking ----------------------------------------- *)

  (* Greedy minimization to a fixpoint.  Every transformation is
     re-checked with [refutes]; each accepted step strictly decreases
     (total steps, future count, context switches) lexicographically, so
     the loop terminates. *)
  let shrink prog shape0 =
    let ok s = match refutes prog s with Ok true -> true | _ -> false in
    let replace_future s i f' =
      { s with futures = List.mapi (fun j f -> if j = i then f' else f) s.futures }
    in
    let remove_nth l n = List.filteri (fun i _ -> i <> n) l in
    let drop_futures s =
      if List.length s.futures <= 1 then []
      else List.mapi (fun i _ -> { s with futures = remove_nth s.futures i }) s.futures
    in
    let drop_future_steps s =
      List.concat
        (List.mapi
           (fun i f ->
             let n = List.length f in
             (* last step first: trailing steps usually carry no events *)
             List.rev_map (fun j -> replace_future s i (remove_nth f j)) (List.init n Fun.id))
           s.futures)
    in
    let drop_branch_steps s =
      let n = List.length s.branch in
      List.rev_map (fun j -> { s with branch = remove_nth s.branch j }) (List.init n Fun.id)
    in
    let hoist s =
      match s.futures with
      | (h :: _) :: _ when List.length s.futures > 1 ->
          if List.for_all (function h' :: _ -> h' = h | [] -> false) s.futures then
            [ { s with branch = s.branch @ [ h ]; futures = List.map List.tl s.futures } ]
          else []
      | _ -> []
    in
    let swaps s =
      (* Adjacent swaps that reduce context switches, in the branch and in
         each future (cosmetic: fewer interleavings to read). *)
      let swap_points l =
        List.filteri (fun i _ -> i < List.length l - 1) (List.mapi (fun i _ -> i) l)
      in
      let swap_at l i =
        List.mapi
          (fun j x -> if j = i then List.nth l (i + 1) else if j = i + 1 then List.nth l i else x)
          l
      in
      List.map (fun i -> { s with branch = swap_at s.branch i }) (swap_points s.branch)
      @ List.concat
          (List.mapi
             (fun fi f -> List.map (fun i -> replace_future s fi (swap_at f i)) (swap_points f))
             s.futures)
    in
    let rec loop s fuel =
      if fuel = 0 then s
      else
        let smaller =
          List.find_opt ok
            (drop_futures s @ drop_future_steps s @ drop_branch_steps s @ hoist s)
        in
        match smaller with
        | Some s' -> loop s' (fuel - 1)
        | None -> (
            match
              List.find_opt (fun c -> total_switches c < total_switches s && ok c) (swaps s)
            with
            | Some s' -> loop s' (fuel - 1)
            | None -> s)
    in
    loop shape0 500

  (* ---------------- conflict computation ------------------------------ *)

  let conflict_of prog shape : conflict option =
    match shape.kind with
    | Not_linearizable -> None
    | Livelock ->
        Some
          (Generic
             (Printf.sprintf
                "the cycle (schedule %s) repeats with an identical event signature and no \
                 operation completes — the adversary starves every pending operation"
                (String.concat "" (List.map string_of_int (List.concat shape.futures)))))
    | Not_strongly_linearizable -> (
        match reach prog shape.branch with
        | None -> None
        | Some [] ->
            Some (Generic "the branch prefix itself admits no prefix-closed linearization")
        | Some cands -> (
            match node_records prog shape.branch with
            | Error _ -> None
            | Ok branch_records ->
                let surv =
                  List.map
                    (fun f ->
                      match chain_records prog shape.branch f with
                      | None -> []
                      | Some rec_seq -> survivors rec_seq cands)
                    shape.futures
                in
                let n = List.length surv in
                let s = Array.of_list surv in
                (* The choices future [i]'s survivors leave open for
                   operation [id]: the responses it is committed to at the
                   branch, [None] meaning "linearized after the branch". *)
                let choices i id : choice list =
                  List.sort_uniq compare
                    (List.map
                       (fun lin ->
                         List.find_map
                           (fun (e : L.entry) ->
                             if e.L.op_id = id then Some (resp_str e.L.eresp) else None)
                           lin)
                       s.(i))
                in
                let label r = History.label S.pp_op S.pp_resp r in
                (* An operation whose choice sets under two futures are
                   disjoint is a one-operation explanation: any common
                   branch linearization would need a common choice. *)
                let classify r i j =
                  let id = r.History.id in
                  if s.(i) = [] || s.(j) = [] then None
                  else
                    let a = choices i id and b = choices j id in
                    if List.exists (fun c -> List.mem c b) a then None
                    else
                      match (a, b) with
                      | _ when (not (List.mem None a)) && b = [ None ] ->
                          Some (Placement { op = label r; forced_by = i; excluded_by = j })
                      | [ Some ra ], [ Some rb ] ->
                          Some
                            (Response
                               {
                                 op = label r;
                                 forced_by = i;
                                 resp_a = ra;
                                 excluded_by = j;
                                 resp_b = rb;
                               })
                      | a, b ->
                          Some
                            (Commitment
                               {
                                 op = label r;
                                 future_a = i;
                                 choices_a = a;
                                 future_b = j;
                                 choices_b = b;
                               })
                in
                let best =
                  (* prefer the crispest classification over all
                     (operation, future pair) choices *)
                  let rank = function
                    | Placement _ -> 0
                    | Response _ -> 1
                    | Commitment _ -> 2
                    | Generic _ -> 3
                  in
                  List.concat_map
                    (fun r ->
                      List.concat_map
                        (fun i ->
                          List.filter_map
                            (fun j -> if i = j then None else classify r i j)
                            (List.init n Fun.id))
                        (List.init n Fun.id))
                    branch_records
                  |> List.sort (fun a b -> compare (rank a) (rank b))
                in
                (match best with
                | c :: _ -> Some c
                | [] ->
                    Some
                      (Generic "no linearization of the branch prefix survives every future"))))

  (* ---------------- serialization ------------------------------------- *)

  let history_json records =
    Obs_json.List
      (List.map
         (fun (r : _ History.op_record) ->
           Obs_json.Assoc
             [
               ("id", Obs_json.Int r.History.id);
               ("proc", Obs_json.Int r.History.proc);
               ("op", Obs_json.String (op_str r.History.op));
               ( "resp",
                 match r.History.resp with
                 | None -> Obs_json.Null
                 | Some v -> Obs_json.String (resp_str v) );
             ])
         records)

  let to_json prog ~object_name ~spec_name ~max_nodes ~max_depth ~nodes ~original_len shape =
    let ints l = Obs_json.List (List.map (fun i -> Obs_json.Int i) l) in
    let conflict = conflict_of prog shape in
    Obs_json.Assoc
      [
        ("schema", Obs_json.String schema_version);
        ("object", Obs_json.String object_name);
        ("spec", Obs_json.String spec_name);
        ("procs", Obs_json.Int prog.Sim.procs);
        ("kind", Obs_json.String (kind_tag shape.kind));
        ( "check",
          Obs_json.Assoc
            [
              ("max_nodes", Obs_json.Int max_nodes);
              ( "max_depth",
                match max_depth with Some d -> Obs_json.Int d | None -> Obs_json.Null );
              ("nodes", match nodes with Some n -> Obs_json.Int n | None -> Obs_json.Null);
            ] );
        ("branch", ints shape.branch);
        ( "futures",
          Obs_json.List
            (List.map
               (fun f ->
                 Obs_json.Assoc
                   [
                     ("schedule", ints f);
                     ("history", history_json (node_records_exn prog (shape.branch @ f)));
                   ])
               shape.futures) );
        ( "conflict",
          match conflict with None -> Obs_json.Null | Some c -> Obs_json.Assoc (conflict_fields c)
        );
        ("original_len", Obs_json.Int original_len);
        ("shrunk_len", Obs_json.Int (size shape));
      ]

  (* ---------------- replay verification -------------------------------- *)

  type replay_report = { reproduced : bool; notes : string list }

  let replay prog (p : parsed) : replay_report =
    let notes = ref [] in
    let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
    if p.p_procs <> prog.Sim.procs then
      note "witness records %d processes but the program has %d" p.p_procs prog.Sim.procs;
    List.iteri
      (fun i (f : recorded_future) ->
        match node_records prog (p.p_branch @ f.f_schedule) with
        | Error e -> note "future %d: schedule does not replay: %s" i e
        | Ok records ->
            if List.length records <> List.length f.f_history then
              note "future %d: replay has %d operations, witness recorded %d" i
                (List.length records) (List.length f.f_history)
            else
              List.iter2
                (fun (r : _ History.op_record) (rec_op : recorded_op) ->
                  if r.History.proc <> rec_op.r_proc then
                    note "future %d, op #%d: replayed on p%d, recorded on p%d" i r.History.id
                      r.History.proc rec_op.r_proc;
                  if op_str r.History.op <> rec_op.r_op then
                    note "future %d, op #%d: replayed %s, recorded %s" i r.History.id
                      (op_str r.History.op) rec_op.r_op;
                  let replayed_resp = Option.map resp_str r.History.resp in
                  if replayed_resp <> rec_op.r_resp then
                    note "future %d, op #%d: replayed response %s, recorded %s" i r.History.id
                      (Option.value ~default:"(pending)" replayed_resp)
                      (Option.value ~default:"(pending)" rec_op.r_resp))
                records f.f_history)
      p.p_futures;
    let verdict_ok =
      match refutes prog (shape_of_parsed p) with
      | Ok true -> true
      | Ok false ->
          note "the certificate does NOT refute: a prefix-closed assignment exists on the subtree";
          false
      | Error e ->
          note "certificate replay failed: %s" e;
          false
    in
    { reproduced = verdict_ok && !notes = []; notes = List.rev !notes }

  (* ---------------- rendering ------------------------------------------ *)

  let describe_event = function
    | Trace.Invoke { op; _ } -> "invoke " ^ op_str op
    | Trace.Return { resp; _ } -> "return " ^ resp_str resp
    | Trace.Step { obj; info; _ } -> (
        match info with Some i -> obj ^ ":" ^ i | None -> obj)

  (* One line per schedule step, attributing trace events to the step
     that produced them (the trace grows by whole steps). *)
  let timeline prog sched : string list =
    match Sim.run_schedule_result prog [] with
    | Error _ -> []
    | Ok w ->
        let prev = ref (List.length (Sim.trace w)) in
        List.mapi
          (fun i p ->
            match Sim.step w p with
            | exception Sim.Invalid_schedule msg ->
                Printf.sprintf "%3d  p%d  <invalid: %s>" (i + 1) p msg
            | () ->
                let tr = Sim.trace w in
                let events = drop !prev tr in
                prev := List.length tr;
                Printf.sprintf "%3d  p%d  %s" (i + 1) p
                  (String.concat "; " (List.map describe_event events)))
          sched

  let side_by_side left right =
    let width = List.fold_left (fun a s -> max a (String.length s)) 24 left in
    let rec zip l r =
      match (l, r) with
      | [], [] -> []
      | lh :: lt, [] -> (lh, "") :: zip lt []
      | [], rh :: rt -> ("", rh) :: zip [] rt
      | lh :: lt, rh :: rt -> (lh, rh) :: zip lt rt
    in
    List.map (fun (l, r) -> Printf.sprintf "%-*s | %s" width l r) (zip left right)

  let sched_str sched = String.concat "" (List.map string_of_int sched)

  let pp_explain ~prog ?conflict fmt shape =
    let b = List.length shape.branch in
    (match shape.kind with
    | Not_linearizable -> Format.fprintf fmt "kind: NOT linearizable@."
    | Not_strongly_linearizable ->
        Format.fprintf fmt "kind: linearizable but NOT strongly linearizable@."
    | Livelock ->
        Format.fprintf fmt
          "kind: LIVELOCK (lock-freedom refuted: the cycle below repeats forever without \
           completing any operation)@.");
    let branch_label, future_label =
      match shape.kind with
      | Livelock -> ("stem", "cycle")
      | Not_linearizable | Not_strongly_linearizable -> ("branch (shared prefix)", "future")
    in
    let future_lines f = drop b (timeline prog (shape.branch @ f)) in
    if shape.branch <> [] then begin
      Format.fprintf fmt "%s, schedule %s:@." branch_label (sched_str shape.branch);
      List.iter
        (fun l -> Format.fprintf fmt "%s@." l)
        (take b (timeline prog (shape.branch @ List.hd shape.futures)))
    end;
    (match shape.futures with
    | [ f0; f1 ] ->
        let header side i f = Printf.sprintf "%s future %d, schedule %s:" side i (sched_str f) in
        let left = header "" 0 f0 :: future_lines f0 in
        let right = header "" 1 f1 :: future_lines f1 in
        List.iter (fun l -> Format.fprintf fmt "%s@." l) (side_by_side left right)
    | fs ->
        List.iteri
          (fun i f ->
            Format.fprintf fmt "%s %d, schedule %s:@." future_label i (sched_str f);
            List.iter (fun l -> Format.fprintf fmt "%s@." l) (future_lines f))
          fs);
    (* the complete history of each execution, as the checker sees it *)
    List.iteri
      (fun i f ->
        match node_records prog (shape.branch @ f) with
        | Error _ -> ()
        | Ok records ->
            Format.fprintf fmt "history %d: @[%a@]@." i
              (History.pp_inline S.pp_op S.pp_resp)
              records)
      shape.futures;
    match conflict with
    | Some c -> Format.fprintf fmt "conflict: %s@." (conflict_description c)
    | None -> ()
end
