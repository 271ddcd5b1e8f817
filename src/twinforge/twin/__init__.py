"""Twin harness: image capture, sandbox restore, patching, checks, diffs."""

# Read by perfbench/inputs.py; every other name is imported from its module.
from twinforge.twin.patch import AddFile, DeleteFile, PatchDelta, ReplaceFile, SetConfig
