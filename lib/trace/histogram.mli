(** Log-bucketed integer histograms with four sub-buckets per octave
    (relative error <= 12.5% above 4; exact below).  The single home of
    the percentile/bucketing arithmetic used by the workload reports —
    O(1) insertion, fixed 256-slot storage, fully deterministic. *)

type t

val create : unit -> t
val clear : t -> unit

val add : t -> int -> unit
(** Record one sample (negative samples clamp to 0). *)

val count : t -> int
val total : t -> int
val mean : t -> float

val merge : t -> t -> t
(** Element-wise sum into a fresh histogram. *)

val percentile : t -> float -> int
(** [percentile t q] for 0 < q <= 1: the representative value of the
    bucket holding the ceil(q*n)-th smallest sample, clamped to the
    observed min/max.  0 on an empty histogram. *)

val index_of : int -> int
(** Bucket index of a value (exposed for tests). *)

val bounds : int -> int * int
(** Inclusive value range of a bucket index (exposed for tests). *)

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  min : int;
  max : int;
}

val summary : t -> summary
val format_summary : summary -> string
