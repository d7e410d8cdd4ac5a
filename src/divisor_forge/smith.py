"""Smith normal form of integer matrices with unimodular transforms.

U * A * V = S with S diagonal, each diagonal entry dividing the next.
Used to solve linear diophantine systems for multidegree searches.
"""

from .errors import NoSolution


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """Return (U, S, V) with U*A*V = S in Smith normal form.

    A is a list of rows of integers; U and V are unimodular.
    """
    S = [list(map(int, row)) for row in A]
    k = len(S)
    n = len(S[0]) if k else 0
    U = identity(k)
    V = identity(n)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        S[i] = [a + q * b for a, b in zip(S[i], S[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in S:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    def negate_row(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(k, n):
        # find pivot of least absolute value in the remaining block
        pivot = None
        best = None
        for i in range(t, k):
            for j in range(t, n):
                if S[i][j] and (best is None or abs(S[i][j]) < best):
                    best = abs(S[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        if S[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, k):
            if S[i][t]:
                q = S[i][t] // S[t][t]
                add_row(i, t, -q)
                if S[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if S[t][j]:
                q = S[t][j] // S[t][t]
                add_col(j, t, -q)
                if S[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility fix-up: S[t][t] must divide everything below-right
        fix = None
        for i in range(t + 1, k):
            for j in range(t + 1, n):
                if S[i][j] % S[t][t]:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            add_row(t, fix, 1)
            continue
        t += 1
    return U, S, V


def solve_diophantine(A, target):
    """Smallest-support integer solution e of A*e = target via Smith form.

    Free coordinates are set to zero; raises NoSolution when the system has
    no integer solution.
    """
    U, S, V = smith_normal_form(A)
    k = len(A)
    n = len(A[0]) if k else 0
    t = [sum(U[i][j] * target[j] for j in range(k)) for i in range(k)]
    y = [0] * n
    for i in range(k):
        d = S[i][i] if i < min(k, n) else 0
        if d:
            if t[i] % d:
                raise NoSolution("no integer solution for %r" % (target,))
            y[i] = t[i] // d
        elif t[i]:
            raise NoSolution("no integer solution for %r" % (target,))
    return [sum(V[i][j] * y[j] for j in range(n)) for i in range(n)]
