"""Ways to damage the binary copy of a saved chain, shared by the chainio and
CLI tests."""

import json
import zlib

import numpy as np

from bayesmlp.chainio import companion_paths

#: The first two leave the sidecar's checksum stale. The others replace the
#: copy and make the sidecar record the new file's checksum, so only the
#: checks of the file's format, dtype, order and shape can catch them.
DAMAGE = (
    "flipped byte",
    "truncated",
    "truncated, checksum updated",
    "not npy",
    "other shape",
    "other dtype",
    "Fortran order",
    "version 2.0",
)


def damage_binary(csv_path, how: str) -> None:
    meta_path, binary = companion_paths(csv_path)
    data = binary.read_bytes()
    if how == "flipped byte":
        binary.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        return
    if how == "truncated":
        binary.write_bytes(data[:-8])
        return
    draws = np.load(binary)
    stand_ins = {
        "other shape": draws[1:],
        "other dtype": draws.astype(np.float32),
        "Fortran order": np.asfortranarray(draws),
    }
    if how == "truncated, checksum updated":
        binary.write_bytes(data[:-8])
    elif how == "not npy":
        binary.write_bytes(b"not an npy file\n")
    elif how == "version 2.0":
        with open(binary, "wb") as fh:
            np.lib.format.write_array(fh, draws, version=(2, 0))
    else:
        with open(binary, "wb") as fh:
            np.save(fh, stand_ins[how])
    meta = json.loads(meta_path.read_text())
    meta["npy_crc32"] = zlib.crc32(binary.read_bytes())
    meta_path.write_text(json.dumps(meta))
