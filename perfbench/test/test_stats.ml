(* The benchmark's own statistics: the rules its reported figures rest
   on, pinned on hand-checked inputs. *)

let close = Alcotest.float 1e-12
let range n = Array.init n (fun i -> float_of_int (i + 1))

(* Reference values from Python's statistics.quantiles(data, n=4),
   the rule spreads of benchmark results are judged by. *)
let test_quartiles () =
  let q = Alcotest.(triple close close close) in
  Alcotest.check q "1..10" (2.75, 5.5, 8.25) (Stats.quartiles (range 10));
  Alcotest.check q "1..5" (1.5, 3.0, 4.5) (Stats.quartiles (range 5));
  Alcotest.check q "two samples" (0.5, 2.0, 3.5) (Stats.quartiles [| 3.; 1. |]);
  Alcotest.check q "unsorted" (2.0, 4.0, 7.0)
    (Stats.quartiles [| 5.; 1.; 4.; 2.; 3.; 9.; 7. |]);
  Alcotest.check q "one sample" (4., 4., 4.) (Stats.quartiles [| 4. |])

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [| 5.; 1.; 3.; 2.; 4. |]);
  Alcotest.check close "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty sample")
    (fun () -> ignore (Stats.median [||]))

let tail_is ~pct ~value ~beyond xs =
  let t = Stats.tail xs in
  Alcotest.(check int) "percentile" pct t.Stats.pct;
  Alcotest.check close "value" value t.Stats.value;
  Alcotest.(check int) "beyond" beyond t.Stats.beyond;
  Alcotest.(check int) "n" (Array.length xs) t.Stats.n

(* The tail is the highest whole percentile with at least ten samples
   ranked above it (nearest rank). *)
let test_tail () =
  tail_is ~pct:90 ~value:90. ~beyond:10 (range 100);
  (* p90 of 99 samples is rank 90, leaving 9 beyond: too few *)
  tail_is ~pct:89 ~value:89. ~beyond:10 (range 99);
  tail_is ~pct:99 ~value:990. ~beyond:10 (range 1000);
  (* capped at p99 even when far more samples lie beyond *)
  tail_is ~pct:99 ~value:1980. ~beyond:20 (range 2000);
  tail_is ~pct:50 ~value:10. ~beyond:10 (range 20);
  (* below 20 samples: the median, flagged by its short beyond count *)
  tail_is ~pct:50 ~value:8. ~beyond:7 (range 15);
  tail_is ~pct:50 ~value:2.5 ~beyond:2 (range 4);
  (* order of the input does not matter *)
  let shuffled = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  tail_is ~pct:90 ~value:90. ~beyond:10 shuffled

let tally ?(completed = 0) ?(failed = 0) ?(rejected = 0) ?(shed = 0)
    ?(expired = 0) ?(drained = 0) attempted =
  { Stats.attempted; completed; failed; rejected; shed; expired; drained }

(* Every way a unit can miss its answer counts against the attempts. *)
let test_failed_share () =
  let t = tally 10 ~completed:6 ~failed:1 ~rejected:1 ~shed:1 ~expired:1 in
  Alcotest.check close "all failure kinds" 0.4 (Stats.failed_share t);
  Alcotest.(check bool) "accounted" true (Stats.accounted t);
  Alcotest.check close "drained" 0.5
    (Stats.failed_share (tally 4 ~completed:2 ~drained:2));
  Alcotest.check close "none failed" 0. (Stats.failed_share (tally 3 ~completed:3));
  Alcotest.check close "shed only" 1. (Stats.failed_share (tally 2 ~shed:2));
  Alcotest.(check bool) "a lost unit is not accounted" false
    (Stats.accounted (tally 5 ~completed:3 ~failed:1));
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.failed_share: nothing attempted") (fun () ->
      ignore (Stats.failed_share (tally 0)))

let span id ?parent start stop =
  { Trace.id; name = "s"; start; stop; parent; rid = 0 }

(* Self time: a span's duration minus the union of its direct
   children's intervals within it. *)
let test_self_time () =
  let spans =
    [ span 0 0. 10.;
      span 1 ~parent:0 1. 4.;
      span 2 ~parent:0 3. 6. (* overlaps span 1: parallel children *);
      span 3 ~parent:1 2. 3. (* grandchild: only its parent loses it *);
      span 4 ~parent:0 8. 12. (* runs past its parent: clipped *);
      span 5 5. 7. (* another root *) ]
  in
  let self = Trace.self_times spans in
  let of_id id =
    snd (List.find (fun ((s : Trace.span), _) -> s.Trace.id = id) self)
  in
  Alcotest.check close "parent" (10. -. 5. -. 2.) (of_id 0);
  Alcotest.check close "child with grandchild" 2. (of_id 1);
  Alcotest.check close "overlapping child" 3. (of_id 2);
  Alcotest.check close "leaf" 1. (of_id 3);
  Alcotest.check close "overhanging child" 4. (of_id 4);
  Alcotest.check close "unrelated root" 2. (of_id 5)

let test_recorder () =
  let t = Trace.create () in
  let v =
    Trace.with_ t ~rid:7 "outer" (fun outer ->
        Trace.with_ t ~parent:outer ~rid:7 "inner" (fun _ -> 42))
  in
  Alcotest.(check int) "value" 42 v;
  match Trace.spans t with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner first to close" "inner" inner.Trace.name;
    Alcotest.(check (option int)) "parent" (Some outer.Trace.id) inner.Trace.parent;
    Alcotest.(check bool) "nested" true
      (outer.Trace.start <= inner.Trace.start && inner.Trace.stop <= outer.Trace.stop);
    Alcotest.(check int) "durations by name" 1
      (Array.length (Trace.durations (Trace.spans t) ~name:"inner"))
  | _ -> Alcotest.fail "expected two spans"

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "failed share" `Quick test_failed_share ] );
      ( "trace",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder ] ) ]
