"""A checkpoint's tensor records and the branch store they fill: a reader
for tests that write a damaged copy with `model._write_checkpoint`, and
the check that a branch's arrays are views of its one store."""
import json
import struct

import numpy as np

from hallucinet.data import read_record


def read_records(path) -> tuple[dict, dict]:
    """The header and the tensor records by name of the checkpoint at
    `path`, each record read by the package's record reader into a new
    array; the checksum is not checked."""
    with open(path, "rb") as fh:
        _, hlen = struct.unpack("<4sI", fh.read(8))
        header = json.loads(fh.read(hlen))
        tensors = {name: read_record(fh)[0] for name in header["tensors"]}
    return header, tensors


def assert_one_store(branch):
    """Every array of `branch.tensors()` is a float32 view of the
    branch's store, and together they tile it in that order."""
    start = branch.store.__array_interface__["data"][0]
    offset = 0
    for name, arr in branch.tensors().items():
        assert arr.base is branch.store and arr.dtype == np.float32, name
        assert arr.__array_interface__["data"][0] - start == offset, name
        offset += arr.nbytes
    assert offset == branch.store.nbytes
