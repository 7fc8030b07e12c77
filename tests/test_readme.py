import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_library_example_runs(capsys):
    # the python block of the Library section, run as a script: it solves the
    # demo grid's wave data, without tau_tilde, and prints alpha first
    with open(README) as fh:
        section = fh.read().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md, Library", "exec"), {"__name__": "__main__"})
    alpha = float(capsys.readouterr().out.split()[0])
    assert alpha == pytest.approx(3.5577e-3, rel=1e-4)
