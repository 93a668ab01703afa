type interest = { read : bool; write : bool }

let rd = { read = true; write = false }

external poll_stub :
  Unix.file_descr array -> Bytes.t -> Bytes.t -> int -> int = "dut_poll_stub"

let byte_of { read; write } =
  Char.chr ((if read then 1 else 0) lor if write then 2 else 0)

let wait ~timeout_ms entries =
  let n = Array.length entries in
  let fds = Array.map fst entries in
  let events = Bytes.create n in
  Array.iteri (fun i (_, it) -> Bytes.set events i (byte_of it)) entries;
  let revents = Bytes.make n '\000' in
  let _ready = poll_stub fds events revents timeout_ms in
  Array.init n (fun i ->
      let b = Char.code (Bytes.get revents i) in
      { read = b land 1 <> 0; write = b land 2 <> 0 })
