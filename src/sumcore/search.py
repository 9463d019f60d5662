"""The depth-first walk and the node budget shared by every exact search.

An exact search is a tree given by ``children(node)``, a generator of the
child nodes in the order they are tried; the search itself is a loop
over ``preorder`` that stops at the first goal node, or keeps the best
node seen.  The walk does the spending: before each candidate it tries,
a generator yields a charge (None for one node, an int n for n nodes);
child nodes cost nothing.  The walk ends at the first charge ``Budget``
refuses, and the search reads ``spent`` and ``exhausted`` after it.
"""


class Budget:
    """Node budget of an exact search; ``spent`` counts the nodes granted.

    A limit of 0 is exhausted at once; a negative limit is malformed input.
    """

    __slots__ = ("left", "exhausted", "spent")

    def __init__(self, limit):
        if limit is not None and limit < 0:
            raise ValueError(f"budget must be >= 0, got {limit}")
        self.left = limit  # None = unlimited
        self.exhausted = False
        self.spent = 0

    def spend(self, n=1):
        """Grant n nodes, or mark the budget exhausted if fewer are left."""
        if self.left is not None:
            if self.left < n:
                self.exhausted = True
                return False
            self.left -= n
        self.spent += n
        return True


def preorder(root, children, budget=None):
    """Yield ``root`` and then every node below it, depth first, each node
    before its children, spending each charge ``children`` yields from
    ``budget`` up to the first refused; with no budget none is spent.

    The stack holds one ``children(node)`` generator per open level, so
    depth is bounded by memory, not by the recursion limit.  A node is
    expanded only when the walk resumes after yielding it: a consumer
    that stops at a node never runs its ``children``.
    """
    yield root
    stack = [children(root)]
    while stack:
        for node in stack[-1]:
            if node is None or node.__class__ is int:
                if budget is None or budget.spend(1 if node is None else node):
                    continue
                return
            yield node
            stack.append(children(node))
            break
        else:
            stack.pop()
