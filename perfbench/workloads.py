"""The benchmark's workloads and the report digests they must reproduce."""

# sha256 of each command's stdout report with benchmark seed 0, recorded
# from the program as it was when the benchmark was defined.  A report
# whose bytes differ counts as a failed command.
GOLDEN = {
    ("--no-gutkin", "chartable", "ul(4,4)"):
        "f8823e30a9cd68e270bfb5e1541c73d2920cb778bedd299db3ccb0cc59720b3a",
    ("--no-gutkin", "chartable", "free(3,2,3)"):
        "367128e8a4184a205fe5aa86859882e5d2e608afeace9e7c622bb8161c3cb819",
    ("decompose", "ul(4,3)"):
        "90c8865f261fb2ff255fb711f7216024cce9904179e754910920776f17c41356",
    ("verify", "ul(5,2)", "--suite", "commutators"):
        "226b6750e2adfd11b9a9d7ed6de3e584c74d63ef9d6d08c838044b8805812ada",
    ("verify", "free(3,2,3)", "--suite", "identities"):
        "3159a81004030225ed1d38cc633c200c932db031b1390deb5db83f80b4e555ea",
    ("verify", "ul(5,2)", "--suite", "polarize", "--seed", "0"):
        "17b5427b9bc58ab76f3071178565f5000c491a77304e1c7fc387af1075ba6745",
}


def polarize(seed):
    return ["verify", "ul(5,2)", "--suite", "polarize", "--seed", str(seed)]


def commands(workload, seed):
    """The CLI argv lists one pass of a workload runs, in order."""
    if workload == "oracle":
        # the table oracle alone: Cayley table and class enumeration
        # (ul(4,4)) and the class-algebra split and lift plus a 7.8 MB
        # report (free(3,2,3)); the descent modules never load
        return [
            ["--no-gutkin", "chartable", "ul(4,4)"],
            ["--no-gutkin", "chartable", "free(3,2,3)"],
        ]
    if workload == "descent":
        # every descent stage, dominated by the commutator pairing
        return [["decompose", "ul(4,3)"]]
    if workload == "suites":
        # the shared layers used differently: subgroup closures and
        # rebuilt tables, per-character zeta products, polarizations
        return [
            ["verify", "ul(5,2)", "--suite", "commutators"],
            ["verify", "free(3,2,3)", "--suite", "identities"],
            polarize(seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("oracle", "descent", "suites")
