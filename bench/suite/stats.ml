(* Order statistics over repetitions and runs. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The three cut points of Python's [statistics.quantiles(xs, n=4)]
   (its default "exclusive" method), so a spread printed here matches
   the one a reader recomputes from the same values. *)
let quartiles xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.quartiles: no samples"
  | [ x ] -> (x, x, x)
  | s ->
      let a = Array.of_list s in
      let ld = Array.length a in
      let m = ld + 1 in
      let cut i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.0
      in
      (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med
