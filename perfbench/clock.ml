(* Host monotonic clock in nanoseconds. The stub is bechamel's
   clock_gettime(CLOCK_MONOTONIC) binding, declared here unboxed and
   noalloc so that reading the clock around one engine step allocates
   nothing and so does not disturb the word counts taken beside it. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Host speed drifts: on a shared VM a register-only loop runs up to 1.7
   times slower for seconds at a time, and the simulator slows with it.
   Timing this fixed loop next to a measurement and dividing gives the
   measurement's cost in reference units, which that drift cancels out
   of; [reference_ns] converts a reference unit back to nanoseconds. *)
let spin_iterations = 50_000

let spin_ns () =
  let t0 = now_ns () in
  let acc = ref 0 in
  for i = 1 to spin_iterations do acc := !acc lxor (i * 7) done;
  ignore (Sys.opaque_identity !acc);
  now_ns () - t0

(* The loop's time on a quiet 2.1 GHz x86-64 core. *)
let reference_ns = 40_000.

(* [ns] measured when the loop took [spin] ns, in reference seconds. *)
let reference_seconds ~spin ns =
  float_of_int ns /. float_of_int spin *. reference_ns /. 1e9
