"""The names README.md documents exist in the package.

A backticked span is checked when it is written as a dotted name whose head
is a qpathnet module or public name (`paths.MERGE_TOL`,
`PointerProfile.autocorrelation(delta, moment)`), as an ALL_CAPS constant
(`MAX_PATHS`), or as a call (`verify_preset(`): it must resolve as an
attribute path from qpathnet or from one of its modules.  Other spans (shell
commands, config fields, numpy calls, formulas) are not names of the package.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import qpathnet

README = Path(__file__).resolve().parents[1] / "README.md"

# documented names that are not attributes: an environment variable, and a
# method named without its class
NOT_ATTRIBUTES = ("QPATHNET_THREADS", "marginal(")

MODULES = {
    name: importlib.import_module(f"qpathnet.{name}") for _, name, _ in pkgutil.iter_modules(qpathnet.__path__)
}
NAMESPACES = [qpathnet, *MODULES.values()]

DOTTED = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]+")
CALL = re.compile(r"([A-Za-z_]\w*)\(.*")


def documented_names() -> list[str]:
    """The checked names of README.md, each as an attribute path."""
    names = []
    for span in re.findall(r"`([^`\n]+)`", README.read_text()):
        if span.startswith(NOT_ATTRIBUTES):
            continue
        dotted, call = DOTTED.fullmatch(span), CALL.fullmatch(span)
        if dotted:
            head = dotted.group(1).split(".")[0]
            if head in MODULES or hasattr(qpathnet, head):
                names.append(dotted.group(1))
        elif CONSTANT.fullmatch(span) or call:
            names.append(call.group(1) if call else span)
    return names


def resolves(name: str) -> bool:
    for namespace in NAMESPACES:
        target = namespace
        for part in name.split("."):
            target = getattr(target, part, None)
            if target is None:
                break
        else:
            return True
    return False


def test_the_check_reads_each_form():
    names = documented_names()
    for name in ("paths.MERGE_TOL", "MAX_PATHS", "PointerProfile.autocorrelation", "_ChainLaw"):
        assert name in names
    assert not resolves("paths.NO_SUCH_NAME") and not resolves("NO_SUCH_CONSTANT")


def test_every_documented_name_resolves():
    missing = sorted({name for name in documented_names() if not resolves(name)})
    assert missing == []
