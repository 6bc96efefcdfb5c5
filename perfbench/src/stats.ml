(* Summary statistics the benchmark reports. Everything here is a pure
   function of its sample array, so the test suite can pin each rule. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty sample";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], which is how spreads of this
   benchmark's results are judged, so the latency quartiles it records
   read the same way. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld = 0 then invalid_arg "Stats.quartiles: empty sample";
  let a = sorted xs in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

type tail = {
  pct : int;  (** the percentile reported *)
  value : float;
  beyond : int;  (** samples strictly ranked above it *)
  n : int;
}

(* Nearest-rank percentile: the [ceil (p * n / 100)]-th smallest sample. *)
let rank ~pct n = Int.max 1 (((pct * n) + 99) / 100)

let percentile xs ~pct =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  (sorted xs).(rank ~pct n - 1)

(* The tail is the highest whole percentile (at most 99) that still has
   at least [min_beyond] samples ranked above it, so the figure always
   rests on that many observations. Whole percentiles (not a coarse
   ladder such as 90/95/99) make the chosen percentile move smoothly
   with the sample count, so runs of slightly different length stay
   comparable. Below [2 * min_beyond] samples no percentile from the
   median up qualifies; the tail is then the median itself, reported
   as p50 with its (insufficient) [beyond] count. *)
let min_beyond = 10

let tail xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.tail: empty sample";
  let beyond pct = n - rank ~pct n in
  let rec pick pct =
    if pct <= 50 then 50 else if beyond pct >= min_beyond then pct
    else pick (pct - 1)
  in
  let pct = pick 99 in
  let value = if beyond pct >= min_beyond then percentile xs ~pct else median xs in
  { pct; value; beyond = beyond pct; n }

(* Unit accounting for one run. A unit is a request (serve) or a cell
   (sweep). Every attempted unit ends in exactly one bucket. *)
type tally = {
  attempted : int;
  completed : int;
  failed : int;  (** solved-but-failed requests, errored cells *)
  rejected : int;
  shed : int;
  expired : int;
  drained : int;
}

let empty_tally =
  { attempted = 0; completed = 0; failed = 0; rejected = 0; shed = 0;
    expired = 0; drained = 0 }

let failures t = t.failed + t.rejected + t.shed + t.expired + t.drained

let accounted t = t.completed + failures t = t.attempted

(* Refused and timed-out units count as failures: a request that was
   shed never got an answer, whatever the reason. *)
let failed_share t =
  if t.attempted <= 0 then invalid_arg "Stats.failed_share: nothing attempted";
  float_of_int (failures t) /. float_of_int t.attempted
