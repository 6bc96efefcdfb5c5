module Vec = Lepts_linalg.Vec

(* Sort-based simplex projection: find the threshold tau such that
   sum max(0, x_i - tau) = total, then shift-and-clip. *)
let desc a b = Float.compare b a

let tau_of_sorted ~total sorted =
  let n = Array.length sorted in
  let cumulative = ref 0. and tau = ref (sorted.(0) -. total) in
  for i = 0 to n - 1 do
    cumulative := !cumulative +. sorted.(i);
    let candidate = (!cumulative -. total) /. float_of_int (i + 1) in
    if sorted.(i) > candidate then tau := candidate
  done;
  !tau

let simplex ~total x =
  if total < 0. then invalid_arg "Projection.simplex: negative total";
  let n = Vec.dim x in
  if n = 0 then invalid_arg "Projection.simplex: empty vector";
  let sorted = Array.copy x in
  Array.sort desc sorted;
  let tau = tau_of_sorted ~total sorted in
  Array.map (fun v -> Float.max 0. (v -. tau)) x

(* Monomorphic descending insertion sort. [Array.sort desc] on a float
   array boxes two floats per comparison (polymorphic [get]); this
   sorts the same comparator's total order with none. The slices
   projected here are one instance's preempted segments — small — so
   O(n^2) is fine. Equal keys are bitwise-indistinguishable under
   [Float.compare]'s total order, so the sorted values are identical
   to [Array.sort]'s whatever either algorithm does with ties. *)
let sort_desc_ip (a : float array) n =
  for i = 1 to n - 1 do
    let key = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && Float.compare a.(!j) key < 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- key
  done

let[@inline] fmax (x : float) (y : float) =
  if y > x || (x <> x && not (y <> y)) then y else x

let simplex_ip ~total ~scratch x =
  if total < 0. then invalid_arg "Projection.simplex_ip: negative total";
  let n = Vec.dim x in
  if n = 0 then invalid_arg "Projection.simplex_ip: empty vector";
  if Array.length scratch <> n then
    invalid_arg "Projection.simplex_ip: scratch length mismatch";
  Array.blit x 0 scratch 0 n;
  sort_desc_ip scratch n;
  let tau = tau_of_sorted ~total scratch in
  for i = 0 to n - 1 do
    x.(i) <- fmax 0. (x.(i) -. tau)
  done

(* --- Structure-exploiting fast path (PR 8) ----------------------------- *)

(* [tau_of_sorted] over an explicit prefix length, so callers with a
   shared max-length buffer (the solver's flat block index) can reuse
   one allocation for every block. Identical arithmetic. *)
let tau_of_sorted_n ~total (sorted : float array) n =
  let cumulative = ref 0. and tau = ref (sorted.(0) -. total) in
  for i = 0 to n - 1 do
    cumulative := !cumulative +. sorted.(i);
    let candidate = (!cumulative -. total) /. float_of_int (i + 1) in
    if sorted.(i) > candidate then tau := candidate
  done;
  !tau

(* Fast descending sort: insertion with raw (unboxed) comparisons for
   short slices, in-place min-heapsort above. Both produce the same
   descending multiset of values as [sort_desc_ip], so the cumulative
   sums in [tau_of_sorted] — and hence tau and the projected vector —
   are bit-identical (asserted by the property tests). The only
   ordering difference from [Float.compare]'s total order is the
   placement of [-0.] among zeros, which cannot change any cumulative
   sum that starts from [+0.]. Inputs must be NaN-free — true for every
   solver iterate ({!Lepts_optim.Guard} aborts on non-finite values)
   and required of callers. *)
let sort_desc_fast_ip (a : float array) n =
  if n <= 256 then
    for i = 1 to n - 1 do
      let key = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) < key do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- key
    done
  else begin
    (* Min-heap at the front; extracting the minimum to the shrinking
       tail leaves the array in descending order. *)
    let sift root size =
      let r = ref root and live = ref true in
      while !live do
        let l = (2 * !r) + 1 in
        if l >= size then live := false
        else begin
          let c = if l + 1 < size && a.(l + 1) < a.(l) then l + 1 else l in
          if a.(c) < a.(!r) then begin
            let tmp = a.(c) in
            a.(c) <- a.(!r);
            a.(!r) <- tmp;
            r := c
          end
          else live := false
        end
      done
    in
    for i = (n / 2) - 1 downto 0 do
      sift i n
    done;
    for last = n - 1 downto 1 do
      let tmp = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- tmp;
      sift 0 last
    done
  end

let simplex_fast_ip ~total ~scratch ~n (x : float array) =
  if total < 0. then invalid_arg "Projection.simplex_fast_ip: negative total";
  if n <= 0 then invalid_arg "Projection.simplex_fast_ip: empty prefix";
  if Array.length x < n || Array.length scratch < n then
    invalid_arg "Projection.simplex_fast_ip: buffer shorter than n";
  if n = 1 then
    (* The sorted path's tau degenerates to [x0 - total] (the candidate
       and the initialiser coincide), so the result is this exact
       expression — not [total], which differs when the subtraction
       rounds. *)
    x.(0) <- fmax 0. (x.(0) -. (x.(0) -. total))
  else begin
    Array.blit x 0 scratch 0 n;
    sort_desc_fast_ip scratch n;
    let tau = tau_of_sorted_n ~total scratch n in
    for i = 0 to n - 1 do
      x.(i) <- fmax 0. (x.(i) -. tau)
    done
  end

(* Condat's O(n) exact-threshold simplex projection ("Fast projection
   onto the simplex and the l1 ball", Math. Prog. 158, 2016). Same
   mathematical threshold as the sort path, found without sorting: a
   candidate active set [v] (front of [scratch]) with its running
   threshold [rho], a backlog [v~] (tail of [scratch], disjoint because
   the two together never hold more than [n] values), then pruning
   passes until the active set is consistent. The float result agrees
   with {!simplex_ip} to summation-order rounding (ulps, asserted at
   1e-12 relative by the property tests) but is NOT bit-identical —
   which is why the solver keeps threshold-by-sort
   (see DESIGN.md §12) and this kernel serves huge unpinned blocks. *)
let simplex_condat_ip ~total ~scratch ~n (x : float array) =
  if total < 0. then invalid_arg "Projection.simplex_condat_ip: negative total";
  if n <= 0 then invalid_arg "Projection.simplex_condat_ip: empty prefix";
  if Array.length x < n || Array.length scratch < n then
    invalid_arg "Projection.simplex_condat_ip: buffer shorter than n";
  if total = 0. then
    for i = 0 to n - 1 do
      x.(i) <- 0.
    done
  else begin
    let nv = ref 1 and ntilde = ref 0 in
    scratch.(0) <- x.(0);
    let rho = ref (x.(0) -. total) in
    for i = 1 to n - 1 do
      let xi = x.(i) in
      if xi > !rho then begin
        rho := !rho +. ((xi -. !rho) /. float_of_int (!nv + 1));
        if !rho > xi -. total then begin
          scratch.(!nv) <- xi;
          incr nv
        end
        else begin
          (* Current set cannot contain the threshold: shelve it. *)
          for j = 0 to !nv - 1 do
            scratch.(n - 1 - !ntilde - j) <- scratch.(j)
          done;
          ntilde := !ntilde + !nv;
          scratch.(0) <- xi;
          nv := 1;
          rho := xi -. total
        end
      end
    done;
    (* Re-examine the backlog, oldest first (reading each value before
       any write can reach its slot: [nv + remaining <= n] keeps the
       write tip at or below the read position). *)
    for t = !ntilde - 1 downto 0 do
      let y = scratch.(n - 1 - t) in
      if y > !rho then begin
        scratch.(!nv) <- y;
        incr nv;
        rho := !rho +. ((y -. !rho) /. float_of_int !nv)
      end
    done;
    (* Pruning passes: remove values at or below the threshold until
       none remain. [total > 0.] keeps the maximum strictly above rho,
       so the set never empties. *)
    let changed = ref true in
    while !changed do
      changed := false;
      let i = ref 0 in
      while !i < !nv do
        let y = scratch.(!i) in
        if y <= !rho then begin
          decr nv;
          scratch.(!i) <- scratch.(!nv);
          rho := !rho +. ((!rho -. y) /. float_of_int !nv);
          changed := true
        end
        else incr i
      done
    done;
    let tau = !rho in
    for i = 0 to n - 1 do
      x.(i) <- fmax 0. (x.(i) -. tau)
    done
  end
