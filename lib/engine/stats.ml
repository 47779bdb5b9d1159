module Welford = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.total <- t.total +. x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let min t = t.min
  let max t = t.max
  let total t = t.total
end

module Hist = struct
  type t = {
    bucket_width : float;
    counts : int array; (* last slot is the overflow bucket *)
    mutable n : int;
  }

  let create ~bucket_width ~buckets =
    if bucket_width <= 0.0 || buckets <= 0 then
      invalid_arg "Hist.create: nonpositive shape";
    { bucket_width; counts = Array.make (buckets + 1) 0; n = 0 }

  let add t x =
    let slots = Array.length t.counts in
    let i = int_of_float (x /. t.bucket_width) in
    let i = if i < 0 then 0 else if i >= slots - 1 then slots - 1 else i in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let count t = t.n

  let quantile t q =
    if t.n = 0 then invalid_arg "Hist.quantile: empty";
    if q < 0.0 || q > 1.0 then invalid_arg "Hist.quantile: q outside [0,1]";
    let target = int_of_float (ceil (q *. float_of_int t.n)) in
    let target = if target < 1 then 1 else target in
    let rec scan i acc =
      let acc = acc + t.counts.(i) in
      if acc >= target || i = Array.length t.counts - 1 then
        if i = Array.length t.counts - 1 then infinity
        else t.bucket_width *. float_of_int (i + 1)
      else scan (i + 1) acc
    in
    scan 0 0

  let to_list t =
    let slots = Array.length t.counts in
    List.init slots (fun i ->
        let bound =
          if i = slots - 1 then infinity
          else t.bucket_width *. float_of_int (i + 1)
        in
        (bound, t.counts.(i)))
end

module Timeseries = struct
  type t = { name : string; mutable rev : (float * float) list; mutable n : int }

  let create ?(name = "") () = { name; rev = []; n = 0 }
  let name t = t.name

  let add t time v =
    t.rev <- (time, v) :: t.rev;
    t.n <- t.n + 1

  let length t = t.n
  let to_list t = List.rev t.rev

  (* Successive differences over an already-ordered point list.  One
     output point per input pair, stamped at the later time, so an
     n-point series yields n-1 points and empty/singleton series yield
     []. *)
  let delta points =
    match points with
    | [] | [ _ ] -> []
    | (_, v0) :: rest ->
        let prev = ref v0 in
        List.map
          (fun (t, v) ->
            let d = v -. !prev in
            prev := v;
            (t, d))
          rest

  (* Counter -> per-second rate: delta divided by the sampling gap.
     Pairs with a nonpositive time step carry no rate information
     (duplicate timestamps from merged runs) and are skipped. *)
  let rate points =
    match points with
    | [] | [ _ ] -> []
    | (t0, v0) :: rest ->
        let prev_t = ref t0 and prev_v = ref v0 in
        List.filter_map
          (fun (t, v) ->
            let dt = t -. !prev_t and dv = v -. !prev_v in
            prev_t := t;
            prev_v := v;
            if dt > 0.0 then Some (t, dv /. dt) else None)
          rest
end

module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let incr ?(by = 1) t key =
    match Hashtbl.find_opt t key with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t key (ref by)

  let get t key = match Hashtbl.find_opt t key with Some r -> !r | None -> 0
  let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t 0

  let to_list t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let reset t = Hashtbl.reset t
end
