% Generate and test over a fact table: d/1 generates every triple, and
% t/3 admits a few.  A call such as t(k0,k1,k2) clashes with most rows
% on a constant, so most of its clauses are dropped without an event.
goal :- d(X), d(Y), d(Z), t(X, Y, Z).
d(k0).
d(k1).
d(k2).
t(k1, k0, k2).
t(k2, k2, k0).
t(k0, k1, k1).
t(k2, f(k0), k1).
t(k1, k0, g(X, X)).
t(X, k2, k2).
:- goal.
