(** Typed base objects over a runtime — the paper's primitives, organized
    by consensus number.

    Every operation is exactly one atomic step ({!Runtime_intf.S.access}):

    - consensus number 1: read/write {!Make.Register};
    - consensus number 2: {!Make.Test_and_set}, fetch&add
      ({!Make.Faa_wide} on arbitrary-precision naturals — the §3
      constructions need unbounded width — and {!Make.Faa_int} on ints),
      {!Make.Swap} — the "realistic primitives" of the title;
    - consensus number ∞: {!Make.Cas}, used only by the baseline
      universal constructions the paper contrasts against.

    All objects are {e readable} (one-step [read]); by Lemma 16 this does
    not affect strong linearizability of algorithms that do not use the
    reads.  Algorithm B of Lemma 12 is where the reads are load-bearing. *)

module Make (R : Runtime_intf.S) : sig
  module Register : sig
    type 'a t

    val make : ?name:string -> 'a -> 'a t
    val read : 'a t -> 'a
    val write : 'a t -> 'a -> unit
  end

  module Test_and_set : sig
    type t

    val make : ?name:string -> ?procs:int -> unit -> t
    (** [procs] restricts the object: [make ~procs:2 ()] is the 2-process
        test&set of Theorem 19; a third distinct process applying
        {!test_and_set} raises [Invalid_argument]. *)

    val test_and_set : t -> int
    (** Returns the previous bit: 0 for the unique winner, 1 after. *)

    val read : t -> int
  end

  module Faa_wide : sig
    type t
    (** A wide register backed by a {!Bignum.Acc.t}: a fetch&add costs the
        size of its delta, not the width of the register.  Each entry
        point below is exactly one fetch&add step. *)

    val make : ?name:string -> Bignum.t -> t

    val fetch_and_add : t -> Bignum.Signed.t -> Bignum.t
    (** Atomically adds a (possibly negative) delta; returns the previous
        value as an immutable copy.
        @raise Bignum.Underflow if the result would be negative (the
        register is then unchanged). *)

    val add : t -> Bignum.Signed.t -> unit
    (** {!fetch_and_add} with the previous value discarded, so no copy of
        the register is made: what the §3 writes and updates use. *)

    val read : t -> Bignum.t
    (** The §3 constructions read with fetch&add(R, 0); this is that.
        Returns an immutable copy. *)

    val read_with : t -> (Bignum.Acc.t -> 'a) -> 'a
    (** [read_with r decode] is fetch&add(R, 0) that applies [decode] to
        the register's value inside the step and returns its result, so a
        read costs its decoding and no copy.  [decode] must not keep or
        mutate its argument: it is the live register. *)
  end

  module Faa_int : sig
    type t

    val make : ?name:string -> int -> t
    val fetch_and_add : t -> int -> int
    val read : t -> int
  end

  module Swap : sig
    type 'a t

    val make : ?name:string -> 'a -> 'a t

    val swap : 'a t -> 'a -> 'a
    (** Atomically installs the new value; returns the previous one. *)

    val read : 'a t -> 'a
  end

  module Cas : sig
    type 'a t

    val make : ?name:string -> 'a -> 'a t

    val compare_and_swap : 'a t -> expect:'a -> 'a -> bool
    (** Structural-equality compare. *)

    val read : 'a t -> 'a

    val update : 'a t -> ('a -> 'a * 'b) -> 'b
    (** Unconditional atomic read-modify-write (same consensus power as
        CAS); used by the CAS-backed atomic reference objects. *)
  end
end
