(* Theorem 1: a wait-free strongly-linearizable max register from
   fetch&add.

   One wide register packs every process's personal maximum, in unary,
   with interleaved bits: process i owns absolute bits i, n+i, 2n+i, ...
   of the register, and stores the value v as v consecutive one-bits
   (stream bits 0..v-1).  To raise its maximum from prev to k, process i
   fetch&adds the number whose stream-i bits prev..k-1 are set; a read is
   fetch&add(R, 0) followed by local decoding.  Every operation is a
   single fetch&add, which is its linearization point — hence strong
   linearizability.

   The paper has WriteMax apply fetch&add(R, 0) even when the write does
   not raise the process's maximum ("not needed for correctness, but it
   simplifies the linearization proof"); we keep that step for
   faithfulness, so WriteMax is always exactly one base-object step. *)

module Make (R : Runtime_intf.S) : sig
  include Object_intf.MAX_REGISTER

  val width_bits : t -> int
  (** Bits currently used by the backing wide register — instrumentation
      for the §6 discussion of storing "extremely large values" (bench
      E5); reads the register (one step). *)
end = struct
  module P = Prim.Make (R)

  type t = { reg : P.Faa_wide.t; prev_local_max : int array }

  let create ?name () =
    { reg = P.Faa_wide.make ?name Bignum.zero; prev_local_max = Array.make (R.n_procs ()) 0 }

  (* Unary encoding of the step prev -> k in process i's stream: stream
     bits prev..k-1 set, i.e. k - prev ones deposited at stride n from
     absolute bit i + prev*n.  The delta carries the limbs below that bit
     as a shift, so it is as long as the step, not the register. *)
  let unary_delta ~n ~i ~prev ~k =
    Bignum.Signed.deposit_stride (Bignum.ones (k - prev)) ~offset:(i + (prev * n)) ~stride:n

  let write_max t k =
    if k < 0 then invalid_arg "Faa_max_register.write_max: negative";
    let i = R.self () and n = R.n_procs () in
    let prev = t.prev_local_max.(i) in
    if k <= prev then P.Faa_wide.add t.reg Bignum.Signed.zero
    else begin
      P.Faa_wide.add t.reg (unary_delta ~n ~i ~prev ~k);
      t.prev_local_max.(i) <- k
    end

  let width_bits t = P.Faa_wide.read_with t.reg Bignum.Acc.num_bits

  let read_max t =
    let n = R.n_procs () in
    P.Faa_wide.read_with t.reg (fun packed ->
        let best = ref 0 in
        for i = 0 to n - 1 do
          (* Stream i holds a unary value: contiguous ones from bit 0, so
             the value is the position of the highest set bit plus one. *)
          let v = Bignum.Acc.stride_num_bits packed ~offset:i ~stride:n in
          if v > !best then best := v
        done;
        !best)
end
