(* Log-bucketed latency histograms (etrees.trace).

   Buckets cover the non-negative integers with four sub-buckets per
   octave (relative error <= 12.5% above 4), exactly like HdrHistogram
   at 2 significant bits:

     bucket 0         = {0}
     buckets 1..3     = {1}, {2}, {3}              (exact)
     for m >= 2, the octave [2^m, 2^(m+1)) splits into 4 runs of
     2^(m-2) values each, at indices 4*(m-1) .. 4*(m-1)+3.

   Everything is integer arithmetic on a fixed 256-slot array: adding a
   sample is O(1) with no allocation, merging is element-wise, and all
   derived statistics are deterministic functions of the recorded
   multiset — the workload reports depend on that for their replay
   regressions.

   This module is the single home of the percentile/bucketing
   arithmetic: [Workloads.Response_time] and the trace reports both use
   it rather than hand-rolling their own (see ISSUE 3, satellite 2). *)

type t = {
  counts : int array; (* 256 slots, see [index_of] *)
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let slots = 256

let create () =
  { counts = Array.make slots 0; n = 0; sum = 0; min_v = max_int; max_v = 0 }

let clear t =
  Array.fill t.counts 0 slots 0;
  t.n <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

(* Position of the most significant set bit (v >= 1). *)
let msb v =
  let rec go m v = if v <= 1 then m else go (m + 1) (v lsr 1) in
  go 0 v

let index_of v =
  if v <= 0 then 0
  else if v < 4 then v
  else
    let m = msb v in
    (4 * (m - 1)) + ((v lsr (m - 2)) land 3)

(* Inclusive [lo, hi] range of values mapping to bucket [i]. *)
let bounds i =
  if i < 4 then (i, i)
  else
    let m = (i / 4) + 1 and sub = i mod 4 in
    let step = 1 lsl (m - 2) in
    let lo = (1 lsl m) + (sub * step) in
    (lo, lo + step - 1)

(* A bucket's representative value: its midpoint (exact below 4). *)
let representative i =
  let lo, hi = bounds i in
  lo + ((hi - lo) / 2)

let add t v =
  let v = if v < 0 then 0 else v in
  let i = index_of v in
  let i = if i >= slots then slots - 1 else i in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

let merge a b =
  let t = create () in
  Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
  t.n <- a.n + b.n;
  t.sum <- a.sum + b.sum;
  t.min_v <- min a.min_v b.min_v;
  t.max_v <- max a.max_v b.max_v;
  t

(* The value at quantile [q] (0 < q <= 1): the representative of the
   bucket containing the ceil(q*n)-th smallest sample, clamped to the
   observed min/max so singleton distributions report exactly. *)
let percentile t q =
  if t.n = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.n)) in
      if r < 1 then 1 else if r > t.n then t.n else r
    in
    let rec find i seen =
      let seen = seen + t.counts.(i) in
      if seen >= rank then i else find (i + 1) seen
    in
    let i = find 0 0 in
    let v = representative i in
    if v < t.min_v then t.min_v else if v > t.max_v then t.max_v else v
  end

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  min : int;
  max : int;
}

let summary t =
  {
    count = t.n;
    mean = mean t;
    p50 = percentile t 0.50;
    p90 = percentile t 0.90;
    p99 = percentile t 0.99;
    min = (if t.n = 0 then 0 else t.min_v);
    max = t.max_v;
  }

let format_summary s =
  Printf.sprintf "n=%d mean=%.1f p50=%d p90=%d p99=%d max=%d" s.count s.mean
    s.p50 s.p90 s.p99 s.max
