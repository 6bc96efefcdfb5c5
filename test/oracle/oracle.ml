module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance
module Model = Lepts_power.Model
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Projection = Lepts_optim.Projection
module Pg = Lepts_optim.Projected_gradient
module Numdiff = Lepts_optim.Numdiff
module Objective = Lepts_core.Objective
module Solver = Lepts_core.Solver
module Static_schedule = Lepts_core.Static_schedule

(* The float maximum the production kernels use (NaN in [x] yields
   [y]; ties keep [x]), so signed zeros come out the same. *)
let fmax (x : float) (y : float) =
  if y > x || (x <> x && not (y <> y)) then y else x

let t_at_vmax power = Model.cycle_time power ~v:power.Model.v_max

let alap_end_times (plan : Plan.t) ~t_max ~e ~q =
  let m = Array.length plan.Plan.order in
  let out = Array.copy e in
  if m > 0 then begin
    out.(m - 1) <- plan.Plan.order.(m - 1).Sub.boundary;
    for k = m - 2 downto 0 do
      let b = plan.Plan.order.(k).Sub.boundary in
      out.(k) <- Float.max e.(k) (Float.min b (out.(k + 1) -. (t_max *. q.(k + 1))))
    done
  end;
  out

let slacks_for (plan : Plan.t) ~t_max ~e ~q =
  let m = Array.length plan.Plan.order in
  let s = Array.make m 0. in
  let frontier = ref 0. in
  for k = 0 to m - 1 do
    let start = Float.max plan.Plan.order.(k).Sub.release !frontier in
    s.(k) <- Float.max 0. (e.(k) -. start -. (t_max *. q.(k)));
    frontier := start +. (t_max *. q.(k)) +. s.(k)
  done;
  s

(* Each instance's quota slice onto its [sum = scale * WCEC] simplex
   through an exact-length copy, in (task, instance) order; slacks
   clamped into [0, hyper]. *)
let project (plan : Plan.t) ~scale ~hyper (z : float array) =
  let m = Array.length plan.Plan.order in
  Array.iteri
    (fun i per ->
      let total = scale *. (Task_set.task plan.Plan.task_set i).Task.wcec in
      Array.iter
        (fun idxs ->
          let buf = Array.map (fun k -> z.(k)) idxs in
          Projection.simplex_ip ~total ~scratch:(Array.make (Array.length idxs) 0.) buf;
          Array.iteri (fun pos k -> z.(k) <- buf.(pos)) idxs)
        per)
    plan.Plan.instance_subs;
  for k = m to (2 * m) - 1 do
    z.(k) <- Lepts_util.Num_ext.clamp ~lo:0. ~hi:hyper z.(k)
  done

(* --- Allocating objective ------------------------------------------------ *)

(* The reference {!Lepts_core.Objective.eval_ws} and
   {!Lepts_core.Objective.eval_with_gradient_ws} must reproduce bit for
   bit: the same recurrence over freshly allocated intermediates. The
   energy is the allocating recording sweep's,
   {!Lepts_core.Objective.trace}. *)

let eval ~plan ~power ~totals ~e ~w_hat =
  (Objective.trace ~plan ~power ~totals ~e ~w_hat).Objective.energy

let skip_eps = 1e-12
let window_floor = 1e-12

(* Waterfall split of the actual instance workloads onto sub-instances,
   indexed by total-order position. *)
let split_workloads (plan : Plan.t) ~totals ~w_hat =
  let w = Array.make (Array.length plan.Plan.order) 0. in
  Array.iteri
    (fun i per_instance ->
      Array.iteri
        (fun j idxs ->
          let quotas = Array.map (fun k -> w_hat.(k)) idxs in
          let dist = Lepts_core.Waterfall.distribute ~quotas ~total:totals.(i).(j) in
          Array.iteri (fun pos k -> w.(k) <- dist.(pos)) idxs)
        per_instance)
    plan.Plan.instance_subs;
  w

(* One dispatched step of the forward recurrence, with the branch
   choices needed to replay it backwards. *)
type step = {
  k : int;
  d : float;  (** guarded window *)
  v : float;
  w : float;  (** executed workload *)
  wq : float;  (** worst-case quota *)
  clamped : bool;  (** voltage clamped (at either end of the range) *)
  guarded : bool;  (** window floored *)
  s_from_finish : bool;  (** start = previous finish (vs release) *)
}

let eval_with_gradient ~(plan : Plan.t) ~power ~totals ~e ~w_hat =
  let c0 =
    match power.Model.delay with
    | Model.Ideal { c0 } -> c0
    | Model.Alpha _ ->
      invalid_arg "Oracle.eval_with_gradient: analytic adjoint requires ideal delay"
  in
  let m = Array.length plan.Plan.order in
  let w_hat = Array.map (fun q -> Float.max 0. q) w_hat in
  let w = split_workloads plan ~totals ~w_hat in
  (* Forward sweep, recording branches. *)
  let steps = ref [] in
  let finish = ref 0. and energy = ref 0. in
  for k = 0 to m - 1 do
    let sub = plan.Plan.order.(k) in
    if w.(k) > skip_eps then begin
      let s_from_finish = !finish >= sub.Sub.release in
      let s = if s_from_finish then !finish else sub.Sub.release in
      let d_raw = e.(k) -. s in
      let guarded = d_raw < window_floor in
      let d = if guarded then window_floor else d_raw in
      let v_raw = c0 *. w_hat.(k) /. d in
      let clamped = v_raw <= power.Model.v_min || v_raw > power.Model.v_max in
      let v =
        Lepts_util.Num_ext.clamp ~lo:power.Model.v_min ~hi:power.Model.v_max v_raw
      in
      energy := !energy +. (power.Model.c_eff *. v *. v *. w.(k));
      finish := s +. (w.(k) *. c0 /. v);
      steps :=
        { k; d; v; w = w.(k); wq = w_hat.(k); clamped; guarded; s_from_finish }
        :: !steps
    end
  done;
  (* Backward (adjoint) sweep over the dispatched steps, most recent
     first. [phi] is the adjoint of the running finish time. *)
  let de = Array.make m 0. and dwq = Array.make m 0. in
  let dw = Array.make m 0. in
  let phi = ref 0. in
  List.iter
    (fun st ->
      let sigma = ref !phi in
      (* finish = s + w c0 / v ; E += c_eff v^2 w *)
      let alpha =
        (2. *. power.Model.c_eff *. st.w *. st.v) -. (!phi *. st.w *. c0 /. (st.v *. st.v))
      in
      let beta = (power.Model.c_eff *. st.v *. st.v) +. (!phi *. c0 /. st.v) in
      if not st.clamped then begin
        (* v = c0 wq / d *)
        dwq.(st.k) <- dwq.(st.k) +. (alpha *. c0 /. st.d);
        if not st.guarded then begin
          let delta = -.alpha *. c0 *. st.wq /. (st.d *. st.d) in
          de.(st.k) <- de.(st.k) +. delta;
          sigma := !sigma -. delta
        end
      end;
      dw.(st.k) <- dw.(st.k) +. beta;
      phi := if st.s_from_finish then !sigma else 0.)
    !steps;
  (* Waterfall vector-Jacobian products per instance. *)
  Array.iteri
    (fun i per_instance ->
      Array.iteri
        (fun j idxs ->
          let quotas = Array.map (fun k -> w_hat.(k)) idxs in
          let adjoint = Array.map (fun k -> dw.(k)) idxs in
          let back =
            Lepts_core.Waterfall.backward ~quotas ~total:totals.(i).(j) ~adjoint
          in
          Array.iteri (fun pos k -> dwq.(k) <- dwq.(k) +. back.(pos)) idxs)
        per_instance)
    plan.Plan.instance_subs;
  (!energy, de, dwq)

(* --- Solver -------------------------------------------------------------- *)

type sweep = {
  q : float array;  (** quotas, [z_k / t_max] *)
  e : float array;
  start_ff : bool array;  (** start taken from the frontier *)
  room : float array;
  g : float array;  (** capacity constraint values *)
}

(* The frontier recursion over the whole order. *)
let forward (plan : Plan.t) ~t_max (z : float array) =
  let m = Array.length plan.Plan.order in
  let sw =
    { q = Array.make m 0.; e = Array.make m 0.; start_ff = Array.make m false;
      room = Array.make m 0.; g = Array.make m 0. }
  in
  let frontier = ref 0. in
  for k = 0 to m - 1 do
    let sub = plan.Plan.order.(k) in
    let from_frontier = !frontier >= sub.Sub.release in
    let st = if from_frontier then !frontier else sub.Sub.release in
    let uk = fmax 0. z.(k) and sk = fmax 0. z.(m + k) in
    sw.q.(k) <- z.(k) /. t_max;
    sw.start_ff.(k) <- from_frontier;
    sw.room.(k) <- fmax 0. (sub.Sub.boundary -. st);
    sw.g.(k) <- uk +. sk -. sw.room.(k);
    sw.e.(k) <- st +. uk +. sk;
    frontier := sw.e.(k)
  done;
  sw

let mean_energy ~plan ~power ~totals_list ~e ~q =
  List.fold_left
    (fun acc totals -> acc +. eval ~plan ~power ~totals ~e ~w_hat:q)
    0. totals_list
  /. float_of_int (List.length totals_list)

let solve_from ~max_outer ~max_inner ~totals_list ~(plan : Plan.t) ~power ~y0 =
  let m = Array.length plan.Plan.order in
  let t_max = t_at_vmax power in
  let hyper = Plan.hyper_period plan in
  let scenario_count = float_of_int (List.length totals_list) in
  let analytic =
    match power.Model.delay with Model.Ideal _ -> true | Model.Alpha _ -> false
  in
  let lambda = Array.make m 0. in
  let mu = ref 10. in
  let x = ref (Array.init (2 * m) (fun k -> if k < m then t_max *. y0.(k) else y0.(k))) in
  let project_ip = project plan ~scale:t_max ~hyper in
  let inner_total = ref 0 and outer = ref 0 in
  let violation = ref infinity and finished = ref false in
  while (not !finished) && !outer < max_outer do
    incr outer;
    let mu_now = !mu in
    let lag z =
      let sw = forward plan ~t_max z in
      let penalty = ref 0. in
      for k = 0 to m - 1 do
        let t = lambda.(k) +. (mu_now *. sw.g.(k)) in
        if t > 0. then
          penalty :=
            !penalty +. (((t *. t) -. (lambda.(k) *. lambda.(k))) /. (2. *. mu_now))
        else penalty := !penalty -. (lambda.(k) *. lambda.(k) /. (2. *. mu_now))
      done;
      mean_energy ~plan ~power ~totals_list ~e:sw.e ~q:sw.q +. !penalty
    in
    let lag_grad z =
      let sw = forward plan ~t_max z in
      let de = Array.make m 0. and du = Array.make m 0. and ds = Array.make m 0. in
      List.iter
        (fun totals ->
          let (_ : float), de_i, dq_i =
            eval_with_gradient ~plan ~power ~totals ~e:sw.e ~w_hat:sw.q
          in
          for k = 0 to m - 1 do
            de.(k) <- de.(k) +. (de_i.(k) /. scenario_count);
            du.(k) <- du.(k) +. (dq_i.(k) /. scenario_count)
          done)
        totals_list;
      for k = 0 to m - 1 do
        du.(k) <- du.(k) /. t_max
      done;
      let dg =
        Array.init m (fun k ->
            let t = lambda.(k) +. (mu_now *. sw.g.(k)) in
            if t > 0. then t else 0.)
      in
      (* Adjoint of the frontier recursion; [psi] flows back from later
         sub-instances. *)
      let psi = ref 0. in
      for k = m - 1 downto 0 do
        let total = de.(k) +. !psi in
        du.(k) <- du.(k) +. total +. dg.(k);
        ds.(k) <- ds.(k) +. total +. dg.(k);
        let dstart = total +. (if sw.room.(k) > 0. then dg.(k) else 0.) in
        psi := if sw.start_ff.(k) then dstart else 0.
      done;
      Array.append du ds
    in
    let grad_into z ~into =
      let grad = if analytic then lag_grad z else Numdiff.gradient ~f:lag z in
      Array.blit grad 0 into 0 (2 * m)
    in
    let inner_budget = if !outer <= 3 then min max_inner 300 else min max_inner 60 in
    let r =
      Pg.minimize_ws ~max_iter:inner_budget ~tol:1e-10 ~f:lag ~grad_into ~project_ip
        ~x0:!x ()
    in
    inner_total := !inner_total + r.Pg.iterations;
    x := r.Pg.x;
    let sw = forward plan ~t_max !x in
    let previous_violation = !violation in
    violation := 0.;
    for k = 0 to m - 1 do
      violation := fmax !violation sw.g.(k);
      lambda.(k) <- fmax 0. (lambda.(k) +. (mu_now *. sw.g.(k)))
    done;
    if !violation <= 1e-9 *. hyper then finished := true
    else if !violation > 0.5 *. previous_violation then mu := !mu *. 5.
  done;
  (* Back to quota units, end-times re-derived from the quotas. *)
  let z = !x in
  let q = (forward plan ~t_max z).q in
  let e = Array.make m 0. in
  let frontier = ref 0. in
  for k = 0 to m - 1 do
    let sub = plan.Plan.order.(k) in
    let st = if !frontier >= sub.Sub.release then !frontier else sub.Sub.release in
    e.(k) <- st +. (t_max *. fmax 0. q.(k)) +. fmax 0. z.(m + k);
    frontier := e.(k)
  done;
  match Solver.repair ~plan ~power ~e ~q with
  | Error _ as err -> err
  | Ok (e, q) ->
    let schedule = Static_schedule.create ~plan ~power ~end_times:e ~quotas:q in
    Ok
      ( schedule,
        { Solver.objective =
            mean_energy ~plan ~power ~totals_list ~e:schedule.Static_schedule.end_times
              ~q:schedule.Static_schedule.quotas;
          max_violation = !violation;
          outer_iterations = !outer;
          inner_iterations = !inner_total } )

let guarded f =
  try f ()
  with Lepts_optim.Guard.Non_finite what ->
    Error (Solver.Solver_stalled (Printf.sprintf "non-finite evaluation (%s)" what))

let solve ?(max_outer = 30) ?(max_inner = 2000) ~mode ~(plan : Plan.t) ~power () =
  match Solver.initial_point ~plan ~power with
  | Error _ as err -> err
  | Ok (e0, q0) ->
    let m = Array.length plan.Plan.order in
    let t_max = t_at_vmax power in
    let totals_list = [ Objective.instance_totals mode plan ] in
    let alap = alap_end_times plan ~t_max ~e:e0 ~q:q0 in
    let starts =
      [ Array.append q0 (Array.make m 0.);
        Array.append q0 (slacks_for plan ~t_max ~e:alap ~q:q0) ]
    in
    let solved =
      List.filter_map
        (fun y0 ->
          Result.to_option
            (guarded (fun () ->
                 solve_from ~max_outer ~max_inner ~totals_list ~plan ~power ~y0)))
        starts
    in
    (* The first of the lowest objectives, as production reduces. *)
    match solved with
    | [] -> Error (Solver.Solver_stalled "no start point produced a feasible schedule")
    | first :: rest ->
      Ok
        (List.fold_left
           (fun ((_, best_stats) as best) ((_, stats) as result) ->
             if best_stats.Solver.objective <= stats.Solver.objective then best
             else result)
           first rest)

let quota_sums_match ~(plan : Plan.t) (q : float array) =
  let ok = ref true in
  Array.iteri
    (fun i per_instance ->
      let wcec = (Task_set.task plan.Plan.task_set i).Task.wcec in
      Array.iter
        (fun idxs ->
          let sum = Array.fold_left (fun acc k -> acc +. q.(k)) 0. idxs in
          if Float.abs (sum -. wcec) > 1e-6 *. Float.max 1. wcec then ok := false)
        per_instance)
    plan.Plan.instance_subs;
  !ok

let solve_warm ?(max_outer = 30) ?(max_inner = 2000) ~mode
    ~(prev : Static_schedule.t) ~(plan : Plan.t) ~power () =
  let m = Array.length plan.Plan.order in
  if Array.length prev.Static_schedule.quotas <> m then
    invalid_arg "Oracle.solve_warm: plan does not match the previous schedule";
  let t_max = t_at_vmax power in
  let totals_list = [ Objective.instance_totals mode plan ] in
  let prev_e = prev.Static_schedule.end_times in
  let prev_q = prev.Static_schedule.quotas in
  let y0 = Array.append (Array.copy prev_q) (Array.make m 0.) in
  project plan ~scale:1. ~hyper:(Plan.hyper_period plan) y0;
  let e_seed =
    Array.mapi
      (fun k e ->
        let sub = plan.Plan.order.(k) in
        Lepts_util.Num_ext.clamp ~lo:sub.Sub.release ~hi:sub.Sub.boundary e)
      prev_e
  in
  let q_seed = Array.sub y0 0 m in
  Array.blit (slacks_for plan ~t_max ~e:e_seed ~q:q_seed) 0 y0 m m;
  let baseline =
    let e_b, q_b =
      if quota_sums_match ~plan prev_q then (prev_e, prev_q) else (e_seed, q_seed)
    in
    match Solver.repair ~plan ~power ~e:e_b ~q:q_b with
    | Error _ as err -> err
    | Ok (e, q) ->
      let schedule = Static_schedule.create ~plan ~power ~end_times:e ~quotas:q in
      Ok
        ( schedule,
          { Solver.objective =
              mean_energy ~plan ~power ~totals_list ~e:schedule.Static_schedule.end_times
                ~q:schedule.Static_schedule.quotas;
            max_violation = 0.; outer_iterations = 0; inner_iterations = 0 } )
  in
  let continued =
    guarded (fun () -> solve_from ~max_outer ~max_inner ~totals_list ~plan ~power ~y0)
  in
  match (baseline, continued) with
  | Ok (_, bstats), Ok (_, cstats)
    when cstats.Solver.objective
         >= bstats.Solver.objective
            -. (1e-6 *. Float.abs bstats.Solver.objective) ->
    baseline
  | _, Ok result -> Ok result
  | Ok _, Error _ -> baseline
  | (Error _ as err), Error _ -> err
