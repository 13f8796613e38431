(* The response-time benchmark of §2.5.3 (Fig. 10, right): sparse
   producer/consumer handoff.

   n/2 processors are enqueuers and n/2 dequeuers.  Each enqueuer
   repeatedly enqueues one element and then waits until that very
   element has been dequeued before enqueuing the next (no pipelining).
   The run ends when [total] elements (2560 in the paper) have been
   dequeued; the metric is the elapsed time normalized by the number of
   dequeues each dequeuer performed.  This is where the deterministic
   O(log w) routing of elimination trees crushes the randomized local
   piles: RSU dequeuers must find the few populated piles by luck.

   Besides the paper's normalized-elapsed metric, each element's
   individual response time (enqueue to dequeue, in cycles) feeds a
   log-bucketed histogram ({!Etrace.Histogram}), so the report can show
   p50/p90/p99 instead of only the average-shaped normalization. *)

module E = Sim.Engine

type point = {
  procs : int;
  elapsed : int;
  normalized : float; (* elapsed / (dequeues per dequeuer) *)
  consumed : int;
  rt : Etrace.Histogram.summary; (* per-element response times *)
}

let run ?(seed = 1) ?(total = 2560) ~procs
    (make : procs:int -> int Pool_obj.pool) =
  if procs < 2 || procs mod 2 <> 0 then
    invalid_arg "Response_time.run: procs must be even and >= 2";
  let pool = make ~procs in
  let enqueuers = procs / 2 in
  let consumed = ref 0 in
  let finish_time = ref 0 in
  let stop () = !consumed >= total in
  (* One flag per in-flight element, indexed by enqueuer. *)
  let taken = Array.make enqueuers false in
  (* Host-side response-time bookkeeping: enqueue stamp per in-flight
     element, histogram of dequeue-minus-enqueue times. *)
  let enq_time = Array.make enqueuers 0 in
  let rt = Etrace.Histogram.create () in
  let stats =
    Sim.run ~seed ~procs ~abort_after:2_000_000_000 (fun p ->
        if p < enqueuers then begin
          (* Enqueuer: element id = its own index; wait for handoff. *)
          let rec produce () =
            if not (stop ()) then begin
              taken.(p) <- false;
              enq_time.(p) <- E.now ();
              pool.Pool_obj.enqueue p;
              let rec await () =
                if (not taken.(p)) && not (stop ()) then begin
                  E.delay 32;
                  await ()
                end
              in
              await ();
              produce ()
            end
          in
          produce ()
        end
        else begin
          let rec consume () =
            if not (stop ()) then begin
              (match pool.Pool_obj.dequeue ~stop with
              | Some id ->
                  incr consumed;
                  Etrace.Histogram.add rt (E.now () - enq_time.(id));
                  if stop () then finish_time := E.now ();
                  taken.(id) <- true
              | None -> ());
              consume ()
            end
          in
          consume ()
        end)
  in
  ignore stats;
  if !consumed < total then
    failwith
      (Printf.sprintf "response-time: only %d/%d consumed (method %s)"
         !consumed total pool.Pool_obj.name);
  let per_dequeuer = float_of_int total /. float_of_int (procs / 2) in
  {
    procs;
    elapsed = !finish_time;
    normalized = float_of_int !finish_time /. per_dequeuer;
    consumed = !consumed;
    rt = Etrace.Histogram.summary rt;
  }

let to_json ~method_name (p : point) =
  Report.(
    Obj
      [
        ("kind", Str "response_time");
        ("method", Str method_name);
        ("procs", Int p.procs);
        ("elapsed", Int p.elapsed);
        ("normalized", Float p.normalized);
        ("consumed", Int p.consumed);
        ("response_time", histogram_json p.rt);
      ])
