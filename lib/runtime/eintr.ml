(* EINTR-retrying syscall wrappers.  Chaos delay injection (and the
   watchdog's signal use) makes spurious EINTR wakeups likely; without
   these a signal landing mid-write surfaces as a spurious worker
   failure.  Write-side helpers also announce [Fault.io_event] so the
   strict-I/O lint can check every write runs under an enclosing
   checkpoint scope. *)

let rec read fd buf pos len =
  try Unix.read fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read fd buf pos len

let rec write fd buf pos len =
  Fault.io_event "unix.write";
  try Unix.write fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write fd buf pos len

let rec write_substring fd s pos len =
  Fault.io_event "unix.write";
  try Unix.write_substring fd s pos len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write_substring fd s pos len

let rec accept ?cloexec fd =
  try Unix.accept ?cloexec fd
  with Unix.Unix_error (Unix.EINTR, _, _) -> accept ?cloexec fd

let write_all fd bytes =
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    let n = write fd bytes !written (len - !written) in
    if n <= 0 then raise (Sys_error "short write");
    written := !written + n
  done
