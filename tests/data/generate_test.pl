% Generate and test: pair/2 generates two digits, and the test keeps a
% pair whose first digit is below the second and whose sum is even.
% A dozen tests fail and resume a choice point before the search ends.
goal :- pair(X, Y), below(X, Y), even(X, Y).
pair(X, Y) :- digit(X), digit(Y).
digit(d1).
digit(d2).
digit(d3).
below(d1, d2).
below(d1, d3).
below(d2, d3).
even(d1, d3).
:- goal.
