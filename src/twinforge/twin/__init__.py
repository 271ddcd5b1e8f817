"""Twin harness: image capture, sandbox restore, patching, checks, diffs."""

from twinforge.twin.checks import (
    CheckSpec,
    ConfigEquals,
    FileExists,
    HashEquals,
    load_checks,
    run_checks,
)
from twinforge.twin.image import (
    TwinImage,
    capture_image,
    load_image,
    save_image,
    sidecar_path,
    unpack_archive,
)
from twinforge.twin.manifest import diff_states, load_manifest, scan_tree
from twinforge.twin.patch import (
    AddFile,
    DeleteFile,
    PatchDelta,
    ReplaceFile,
    SetConfig,
    apply_patch,
    load_delta,
)
from twinforge.twin.sandbox import TwinState, instantiate_twin, writer_lock

__all__ = [
    "AddFile",
    "CheckSpec",
    "ConfigEquals",
    "DeleteFile",
    "FileExists",
    "HashEquals",
    "PatchDelta",
    "ReplaceFile",
    "SetConfig",
    "TwinImage",
    "TwinState",
    "apply_patch",
    "capture_image",
    "diff_states",
    "instantiate_twin",
    "load_checks",
    "load_delta",
    "load_image",
    "load_manifest",
    "run_checks",
    "save_image",
    "scan_tree",
    "sidecar_path",
    "unpack_archive",
    "writer_lock",
]
