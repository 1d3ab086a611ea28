"""The byte-identity contract of ``intersect``, pinned by sha256.

A change to the elimination kernel must leave every intersection report
and every ``hookw intersect --json`` output byte for byte as it was.  The
pins change only together with a stated output diff.
"""

import hashlib

import hookw
import hookw.cli as cli

# "\n".join of the reprs of the 360 reports of ``_reports()``, in its order.
REPORTS_SHA256 = "aadef99112f343798d5d9d814be628dbb774e17dc6050278c1e766e072d7c708"
# The concatenated stdout of ``intersect --json`` on the 20 pairs of ``_oracle_argvs()``.
ORACLE_CLI_SHA256 = "43c22ee5da5d2a3f5d95a99c61f90a146661da732d17e364875254b01c69da98"


def _reports():
    """2B(0..2, 0..2) against every target rule at r = min_r..3 and every family at (0..1, 0..1)."""
    for n in range(3):
        for m in range(3):
            source = hookw.phi_family("2B", n, m)
            for kind in hookw.TARGET_KINDS:
                rule = hookw.TARGETS[kind]
                for r in range(rule.min_r, 4):
                    yield hookw.intersect(source, rule.curve(r))
            for tag in hookw.FAMILY_TAGS:
                for n2 in range(2):
                    for m2 in range(2):
                        yield hookw.intersect(source, hookw.phi_family(tag, n2, m2))


def _oracle_argvs():
    """The 20 oracle pairs: 2B(n, m), n in 0..1, m in 1..2, against every target kind at r = 1, 2."""
    for n in (0, 1):
        for m in (1, 2):
            for kind in hookw.TARGET_KINDS:
                for r in (1, 2):
                    if r >= hookw.TARGETS[kind].min_r:
                        yield ["intersect", "--family", "2B", "--n", str(n), "--m", str(m),
                               "--target", kind, "--r", str(r), "--json"]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_intersection_reports_are_pinned():
    reprs = [repr(report) for report in _reports()]
    assert len(reprs) == 360
    assert _sha256("\n".join(reprs)) == REPORTS_SHA256


def test_oracle_intersect_json_is_pinned(capsys):
    codes, outs = [], []
    for argv in _oracle_argvs():
        codes.append(cli.main(argv))
        outs.append(capsys.readouterr().out)
    assert codes == [0] * 20
    assert _sha256("".join(outs)) == ORACLE_CLI_SHA256
