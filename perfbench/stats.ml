(* Quantiles with linear interpolation between closest ranks, the
   definition numpy and the benchmark's documentation use. *)
let quantile samples q =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then s.(n - 1) else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median samples = quantile samples 0.5

(* Growable float buffer for per-call samples. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 256 0.0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines ->
      List.fold_left
        (fun acc line ->
          match acc with
          | Some _ -> acc
          | None ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                    Some (float_of_int kb /. 1024.0))
              else None)
        None lines
  | exception Sys_error _ -> None
