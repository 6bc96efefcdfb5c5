(* Cross-cutting invariants checked over randomly generated task sets,
   schedules and workloads — the system-level safety net. *)

open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Policy = Lepts_dvs.Policy
module Sampler = Lepts_sim.Sampler
module Event_sim = Lepts_sim.Event_sim
module Outcome = Lepts_sim.Outcome

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

(* A pool of solved random task sets, shared across properties to keep
   the suite fast. *)
let fixtures =
  lazy
    (let rng = Lepts_prng.Xoshiro256.create ~seed:2024 in
     List.filter_map
       (fun n ->
         let config =
           { (Lepts_workloads.Random_gen.default_config ~n_tasks:n ~ratio:0.2) with
             Lepts_workloads.Random_gen.max_sub_instances = 150 }
         in
         match Lepts_workloads.Random_gen.generate config ~power ~rng with
         | Error _ -> None
         | Ok ts -> (
           let plan = Plan.expand ts in
           match Solver.solve_acs ~plan ~power () with
           | Error _ -> None
           | Ok (acs, _) -> Some (ts, plan, acs)))
       [ 2; 3; 4; 5 ])

let executed_work plan ~(schedule : Static_schedule.t) ~totals =
  (* Work the runtime actually executes: actual capped at quota sums. *)
  let total = ref 0. in
  Array.iteri
    (fun i per ->
      Array.iteri
        (fun j _ ->
          let quota_sum =
            Array.fold_left
              (fun acc k -> acc +. schedule.Static_schedule.quotas.(k))
              0.
              plan.Plan.instance_subs.(i).(j)
          in
          total := !total +. Float.min totals.(i).(j) quota_sum)
        per)
    plan.Plan.instance_subs;
  !total

let test_energy_bounds () =
  (* Any greedy run's energy lies between pricing all executed work at
     v_min and at v_max. *)
  let rng = Lepts_prng.Xoshiro256.create ~seed:5 in
  List.iter
    (fun (_, plan, acs) ->
      for _ = 1 to 10 do
        let totals = Sampler.instance_totals plan ~rng in
        let o = Event_sim.run ~schedule:acs ~policy:Policy.Greedy ~totals () in
        let w = executed_work plan ~schedule:acs ~totals in
        let lo = Model.energy power ~v:power.Model.v_min ~cycles:w in
        let hi = Model.energy power ~v:power.Model.v_max ~cycles:w in
        if o.Outcome.energy < lo -. 1e-6 || o.Outcome.energy > hi +. 1e-6 then
          Alcotest.failf "energy %g outside [%g, %g]" o.Outcome.energy lo hi
      done)
    (Lazy.force fixtures)

let test_no_misses_on_any_draw () =
  let rng = Lepts_prng.Xoshiro256.create ~seed:6 in
  List.iter
    (fun (_, plan, acs) ->
      for _ = 1 to 20 do
        let totals = Sampler.instance_totals plan ~rng in
        let o = Event_sim.run ~schedule:acs ~policy:Policy.Greedy ~totals () in
        Alcotest.(check int) "no misses" 0 o.Outcome.deadline_misses
      done)
    (Lazy.force fixtures)

let test_bcec_cheaper_than_wcec () =
  List.iter
    (fun (_, plan, acs) ->
      let energy value =
        (Event_sim.run ~schedule:acs ~policy:Policy.Greedy
           ~totals:(Sampler.fixed plan ~value) ())
          .Outcome.energy
      in
      Alcotest.(check bool) "BCEC <= ACEC" true (energy `Bcec <= energy `Acec +. 1e-9);
      Alcotest.(check bool) "ACEC <= WCEC" true (energy `Acec <= energy `Wcec +. 1e-9))
    (Lazy.force fixtures)

let test_predicted_equals_simulated_everywhere () =
  List.iter
    (fun (_, plan, acs) ->
      ignore plan;
      List.iter
        (fun (mode, value) ->
          let totals = Sampler.fixed acs.Static_schedule.plan ~value in
          let o = Event_sim.run ~schedule:acs ~policy:Policy.Greedy ~totals () in
          Alcotest.(check (float 1e-6)) "closed form = event sim"
            (Static_schedule.predicted_energy acs ~mode)
            o.Outcome.energy)
        [ (Objective.Average, `Acec); (Objective.Worst, `Wcec) ])
    (Lazy.force fixtures)

let test_export_matches_plan () =
  List.iter
    (fun (_, plan, acs) ->
      let rows = Export.schedule_to_rows acs in
      Alcotest.(check int) "rows = sub-instances" (Plan.size plan) (List.length rows))
    (Lazy.force fixtures)

let test_validate_agrees_with_simulation () =
  (* Whatever the validator accepts must run the worst case without a
     miss; corrupting the schedule must be caught by at least one of
     validator or simulator. *)
  let rng = Lepts_prng.Xoshiro256.create ~seed:9 in
  List.iter
    (fun (_, plan, acs) ->
      Alcotest.(check bool) "accepted" true (Validate.is_feasible acs);
      let totals = Sampler.fixed plan ~value:`Wcec in
      let o = Event_sim.run ~schedule:acs ~policy:Policy.Greedy ~totals () in
      Alcotest.(check int) "worst case clean" 0 o.Outcome.deadline_misses;
      (* Corrupt: steal most of a random positive quota. *)
      let quotas = Array.copy acs.Static_schedule.quotas in
      let positive =
        Array.to_list acs.Static_schedule.plan.Plan.order
        |> List.filter_map (fun (s : Lepts_preempt.Sub_instance.t) ->
               if quotas.(s.Lepts_preempt.Sub_instance.index) > 0.5 then
                 Some s.Lepts_preempt.Sub_instance.index
               else None)
      in
      if positive <> [] then begin
        let k = List.nth positive (Lepts_prng.Xoshiro256.int rng ~bound:(List.length positive)) in
        quotas.(k) <- quotas.(k) *. 0.25;
        let corrupted =
          Static_schedule.create ~plan:acs.Static_schedule.plan ~power
            ~end_times:acs.Static_schedule.end_times ~quotas
        in
        Alcotest.(check bool) "corruption detected" false
          (Validate.is_feasible corrupted)
      end)
    (Lazy.force fixtures)

let test_solver_idempotent_warm_start () =
  (* Re-solving warm-started from its own solution must not get
     worse. *)
  List.iter
    (fun (_, plan, acs) ->
      match
        Solver.solve_acs
          ~warm_starts:[ (acs.Static_schedule.end_times, acs.Static_schedule.quotas) ]
          ~plan ~power ()
      with
      | Error e -> Alcotest.failf "re-solve failed: %a" Solver.pp_error e
      | Ok (again, _) ->
        let e s = Static_schedule.predicted_energy s ~mode:Objective.Average in
        Alcotest.(check bool) "no regression" true (e again <= e acs +. 1e-6))
    (Lazy.force fixtures)

(* --- serve wire format ----------------------------------------------------- *)

module Request = Lepts_serve.Request
module Cache = Lepts_serve.Cache
module Rng = Lepts_prng.Xoshiro256

(* Seeds over the whole [int] range, ends included: above 2^53 a parse
   through a float would lose bits. *)
let random_seed rng =
  match Rng.int rng ~bound:8 with
  | 0 -> max_int
  | 1 -> min_int
  | 2 -> Rng.int rng ~bound:1_000_000
  | _ -> Int64.to_int (Rng.next_int64 rng)

(* Random requests covering the whole wire surface: ids that need every
   escape (control bytes included), defaulted and explicit fields,
   seeds across the [int] range, and ratios chosen to lose bits under a
   naive float printer (0.1 +. 0.2, 1/3, random draws). *)
let random_request rng =
  let alphabet = "abcXYZ09 _-./\\\"\n\t\r\000\001\008\011\012\031\127" in
  let id =
    let n = 1 + Rng.int rng ~bound:12 in
    String.init n (fun _ ->
        alphabet.[Rng.int rng ~bound:(String.length alphabet)])
  in
  { Request.id;
    tasks = Rng.int rng ~bound:65;
    ratio =
      (match Rng.int rng ~bound:4 with
      | 0 -> 0.1
      | 1 -> 0.1 +. 0.2
      | 2 -> 1. /. 3.
      | _ -> Rng.float rng);
    seed = random_seed rng;
    rounds = Rng.int rng ~bound:50;
    budget_ms =
      (if Rng.int rng ~bound:2 = 0 then None
       else Some (1 + Rng.int rng ~bound:10_000));
    acs_max_outer =
      (if Rng.int rng ~bound:2 = 0 then None
       else Some (Rng.int rng ~bound:10)) }

let test_request_json_roundtrip () =
  let rng = Rng.create ~seed:77 in
  for _ = 1 to 500 do
    let r = random_request rng in
    let line = Request.to_json r in
    (* JSON admits no raw control byte inside a string. *)
    if not (String.for_all (fun c -> Char.code c >= 0x20) line) then
      Alcotest.failf "raw control byte in %S" line;
    match Request.of_json line with
    | Ok r' ->
      if r' <> r then
        Alcotest.failf "round-trip mutated %s into %s" (Request.to_json r)
          (Request.to_json r')
    | Error msg ->
      Alcotest.failf "round-trip rejected %s: %s" (Request.to_json r) msg
  done

let test_cache_key_content_addressed () =
  let rng = Rng.create ~seed:78 in
  for _ = 1 to 500 do
    let r = random_request rng in
    let other = random_request rng in
    (* The id is the client's name for the request, never its content. *)
    if Cache.key r <> Cache.key { r with Request.id = other.Request.id } then
      Alcotest.failf "id changed the key of %s" (Request.to_json r);
    (* The family key blinds exactly the ratio — nothing else. *)
    if
      Cache.family_key r
      <> Cache.family_key { r with Request.ratio = other.Request.ratio }
    then Alcotest.failf "ratio changed the family key of %s" (Request.to_json r);
    if
      other.Request.ratio <> r.Request.ratio
      && Cache.key r = Cache.key { r with Request.ratio = other.Request.ratio }
    then Alcotest.failf "ratio did not change the key of %s" (Request.to_json r)
  done

let suite =
  [ ("request JSON round-trip", `Quick, test_request_json_roundtrip);
    ("cache key content-addressed", `Quick, test_cache_key_content_addressed);
    ("energy bounds", `Quick, test_energy_bounds);
    ("no misses on any draw", `Quick, test_no_misses_on_any_draw);
    ("workload monotone energy", `Quick, test_bcec_cheaper_than_wcec);
    ("predicted = simulated (both modes)", `Quick, test_predicted_equals_simulated_everywhere);
    ("export covers the plan", `Quick, test_export_matches_plan);
    ("validator vs simulator", `Quick, test_validate_agrees_with_simulation);
    ("warm-start idempotence", `Slow, test_solver_idempotent_warm_start) ]
