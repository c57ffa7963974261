(* Order statistics and the comparison rule shared by every mode of the
   benchmark.  Pure: no clocks, no I/O, so the unit tests pin them. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [p] % of
   the samples at or below it. *)
let percentile a p =
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (k - 1)))

let beyond n p =
  n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

(* The tail a workload reports: the highest of p99/p98/p95/p90/p75 that
   still has at least ten samples beyond it at sample count [n].  Below
   40 samples none qualifies; the tail is then p75 with fewer samples
   beyond it, which the label states, because the maximum of a handful
   of requests swings with every stray pause. *)
let tail_percentile n =
  Option.value ~default:75.
    (List.find_opt (fun p -> beyond n p >= 10) [ 99.; 98.; 95.; 90.; 75. ])

let tail_label n =
  let p = tail_percentile n in
  Printf.sprintf "p%.0f, %d beyond" p (beyond n p)

let tail xs =
  let a = sorted xs in
  if Array.length a = 0 then nan else percentile a (tail_percentile (Array.length a))

(* Python's [statistics.quantiles(xs, n=4)] (its default "exclusive"
   method), so spreads printed here agree with ones computed from the
   results files in Python. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Quartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q3 = q1 then 0. else if q2 = 0. then infinity else (q3 -. q1) /. Float.abs q2

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [base] against [cand]: unresolved when either side's quartile spread
   exceeds the bound, otherwise the signed median change decides. *)
let compare_sides ~better ~bound ~base ~cand =
  if spread base > bound || spread cand > bound then Unresolved
  else
    let mb = median base and mc = median cand in
    let change = (mc -. mb) /. Float.abs mb in
    let gain = match better with Lower -> -.change | Higher -> change in
    if gain < -.bound then Worse else if gain > bound then Better else Same
