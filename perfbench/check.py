"""Independent output checks for the benchmark.

Nothing here imports `insitu`: the checks read the text the command line
wrote and recompute what it must mean from the definitions alone.  A
vector (x_1, ..., x_n) over {0, ..., s-1} has index x_1 + s*x_2 + ...,
and an assignment `t table...` overwrites component t with table[index].
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def fmt_mapping(s: int, n: int, images) -> str:
    return f"{s} {n}\n" + " ".join(map(str, images)) + "\n"


def fmt_matrix(s: int, rows) -> str:
    return f"{s} {len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def read_program(text: str):
    """('program' | 'linear', s, n, [(target, payload tuple), ...])."""
    toks = text.split()
    kind, s, n, m = toks[0], int(toks[1]), int(toks[2]), int(toks[3])
    width = s ** n if kind == "program" else n
    nums = list(map(int, toks[4:]))
    if kind not in ("program", "linear") or len(nums) != m * (width + 1):
        raise ValueError("malformed program text")
    steps = [(nums[k], tuple(nums[k + 1:k + 1 + width])) for k in range(0, len(nums), width + 1)]
    return kind, s, n, steps


def run_table_program(s: int, n: int, steps) -> list[int]:
    """Final index of every input index after running the table steps."""
    state = list(range(s ** n))
    for target, table in steps:
        if not 1 <= target <= n or any(not 0 <= v < s for v in table):
            raise ValueError("assignment out of range")
        pw = s ** (target - 1)
        state = [v + (table[v] - v // pw % s) * pw for v in state]
    return state


def linear_program_matrix(s: int, n: int, steps) -> list[list[int]]:
    """Matrix of the linear program: column j is the program run on e_j."""
    cols = []
    for j in range(n):
        x = [1 if i == j else 0 for i in range(n)]
        for row, coeffs in steps:
            x[row - 1] = sum(c * v for c, v in zip(coeffs, x)) % s
        cols.append(x)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def changed_components(s: int, n: int, images) -> int:
    """Components that some input's image differs in: each must be
    written at least once, so this bounds any program's length below."""
    count = 0
    pw = 1
    for _ in range(n):
        if any(x // pw % s != y // pw % s for x, y in enumerate(images)):
            count += 1
        pw *= s
    return count


def report_fields(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


class SplitMix64:
    """Reference copy of the generator the suites draw inputs from."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def below(self, bound: int) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) % bound


def first_suite_input(method: str, s: int, n: int, seed: int):
    """The first input `suite --seed seed` draws: images, or matrix rows."""
    rng = SplitMix64(seed)
    size = s ** n
    if method == "linear":
        return [[rng.below(s) for _ in range(n)] for _ in range(n)]
    if method == "benes":
        images = list(range(size))
        for i in range(size - 1, 0, -1):
            j = rng.below(i + 1)
            images[i], images[j] = images[j], images[i]
        return images
    return [rng.below(size) for _ in range(size)]


def max_length(method: str, n: int) -> int:
    """Length bounds the compilers promise."""
    return {"benes": 2 * n - 1, "general5": 5 * n - 4, "general4-sorted": 4 * n - 3,
            "general4-flex": 4 * n - 3, "linear": 2 * n - 1}[method]


def check_table_program(text: str, s: int, n: int, images, method: str) -> str | None:
    kind, ps, pn, steps = read_program(text)
    if (kind, ps, pn) != ("program", s, n):
        return f"program header {kind} {ps} {pn}"
    if len(steps) > max_length(method, n):
        return f"length {len(steps)} exceeds {max_length(method, n)}"
    if method == "benes" and len(steps) != 2 * n - 1:
        return f"benes length {len(steps)}"
    if run_table_program(s, n, steps) != list(images):
        return "program does not compute the mapping"
    return None


def check_linear_program(text: str, s: int, rows) -> str | None:
    n = len(rows)
    kind, ps, pn, steps = read_program(text)
    if (kind, ps, pn) != ("linear", s, n):
        return f"program header {kind} {ps} {pn}"
    if len(steps) > max_length("linear", n):
        return f"length {len(steps)} exceeds {max_length('linear', n)}"
    if linear_program_matrix(s, n, steps) != [[v % s for v in r] for r in rows]:
        return "factor product differs from the matrix"
    return None
